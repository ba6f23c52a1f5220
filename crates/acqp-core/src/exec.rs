//! Per-tuple plan execution — the traversal cost of Eq. (1).
//!
//! Executing a plan on a tuple walks one root-to-leaf path, *acquiring*
//! each attribute the first time a node needs it and charging its
//! acquisition cost exactly once. Re-reading an already-acquired
//! attribute is free: a second split on the same attribute merely routes
//! on the remembered value.

use acqp_obs::{Counter, FloatCounter, Hist, Recorder};

use crate::attr::{AttrId, Schema};
use crate::dataset::Dataset;
use crate::plan::Plan;
use crate::query::Query;

/// Selects the execution path for batch-capable entry points
/// ([`crate::cost::measure_mode`], historical-trace replay and the
/// sensornet simulation loop). `Scalar` — the default — is the seed
/// per-tuple interpreter, unchanged. `Vectorized` routes through the
/// columnar batch executor of [`crate::batch`], which is proven
/// bitwise-equal to the scalar path by the differential harness in
/// `tests/vectorized_equivalence.rs` (see `DESIGN.md` §12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Per-tuple root-to-leaf tree walk (the seed path).
    #[default]
    Scalar,
    /// Columnar selection-vector execution over
    /// [`crate::batch::ColumnBatch`]es of [`crate::batch::BATCH_ROWS`]
    /// tuples.
    Vectorized,
}

/// How one scheduled query ended, for callers that serve many queries
/// with retry, deadline, and admission-control policies (the sensornet
/// service loop). A lossless run without deadlines or admission
/// control only ever produces `Complete`; every degraded terminal
/// state is typed so downstream accounting can never silently conflate
/// "finished" with "gave up".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryStatus {
    /// Ran its full window and every produced result was delivered.
    #[default]
    Complete,
    /// Ran its full window but lost work to faults along the way
    /// (dropped result packets, aborted tuples, or offline motes): the
    /// reported rows are a prefix-correct subset of the lossless run's.
    Partial,
    /// Never executed: admission control dropped it (budget exhausted
    /// past its queueing bound, or its deadline expired while queued),
    /// or its admission epoch fell beyond the run.
    Shed,
    /// Admitted but terminated at its deadline before the window ended;
    /// rows delivered up to the cutoff are reported.
    TimedOut,
}

impl QueryStatus {
    /// Stable single-byte encoding for persistence (WAL records).
    pub fn to_u8(self) -> u8 {
        match self {
            QueryStatus::Complete => 0,
            QueryStatus::Partial => 1,
            QueryStatus::Shed => 2,
            QueryStatus::TimedOut => 3,
        }
    }

    /// Inverse of [`QueryStatus::to_u8`]; `None` on unknown bytes.
    pub fn from_u8(b: u8) -> Option<Self> {
        match b {
            0 => Some(QueryStatus::Complete),
            1 => Some(QueryStatus::Partial),
            2 => Some(QueryStatus::Shed),
            3 => Some(QueryStatus::TimedOut),
            _ => None,
        }
    }

    /// Short lowercase label for reports and flight events.
    pub fn label(self) -> &'static str {
        match self {
            QueryStatus::Complete => "complete",
            QueryStatus::Partial => "partial",
            QueryStatus::Shed => "shed",
            QueryStatus::TimedOut => "timed_out",
        }
    }
}

/// Source of attribute values for one tuple. The dataset-backed
/// [`RowSource`] simply reads a stored row; the sensornet substrate
/// implements this with energy-accounting sensor reads.
pub trait TupleSource {
    /// Observes (acquires) the value of attribute `attr` for the current
    /// tuple. Called at most once per attribute per tuple.
    fn acquire(&mut self, attr: AttrId) -> u16;
}

/// A [`TupleSource`] reading one row of a [`Dataset`].
#[derive(Debug, Clone, Copy)]
pub struct RowSource<'a> {
    data: &'a Dataset,
    row: usize,
}

impl<'a> RowSource<'a> {
    /// Wraps row `row` of `data`.
    pub fn new(data: &'a Dataset, row: usize) -> Self {
        RowSource { data, row }
    }
}

impl TupleSource for RowSource<'_> {
    fn acquire(&mut self, attr: AttrId) -> u16 {
        self.data.value(self.row, attr)
    }
}

/// Result of executing a plan on one tuple.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Whether the plan outputs (`true`) or rejects (`false`) the tuple.
    pub verdict: bool,
    /// Total acquisition cost `C(P, x)` charged along the traversal.
    pub cost: f64,
    /// Attributes acquired, in acquisition order.
    pub acquired: Vec<AttrId>,
}

/// Executes `plan` for the tuple behind `src`, charging acquisition
/// costs from `schema` per Eq. (1).
pub fn execute(
    plan: &Plan,
    query: &Query,
    schema: &Schema,
    src: &mut impl TupleSource,
) -> ExecOutcome {
    execute_model(plan, query, schema, &crate::costmodel::CostModel::PerAttribute, src)
}

/// Like [`execute`] but with order-dependent acquisition pricing
/// (§7 "Complex acquisition costs"), e.g. shared-board power-ups.
pub fn execute_model(
    plan: &Plan,
    query: &Query,
    schema: &Schema,
    model: &crate::costmodel::CostModel,
    src: &mut impl TupleSource,
) -> ExecOutcome {
    execute_inner(plan, query, schema, model, src, None)
}

/// Like [`execute_model`], recording per-attribute acquisition counts,
/// per-tuple cost, and per-predicate evaluation outcomes into `metrics`.
pub fn execute_metered(
    plan: &Plan,
    query: &Query,
    schema: &Schema,
    model: &crate::costmodel::CostModel,
    src: &mut impl TupleSource,
    metrics: &ExecMetrics,
) -> ExecOutcome {
    execute_inner(plan, query, schema, model, src, Some(metrics))
}

fn execute_inner(
    plan: &Plan,
    query: &Query,
    schema: &Schema,
    model: &crate::costmodel::CostModel,
    src: &mut impl TupleSource,
    metrics: Option<&ExecMetrics>,
) -> ExecOutcome {
    let mut st = TupleState::new(schema.len());
    let mut node = plan;
    let verdict = loop {
        match node {
            Plan::Decided(b) => break *b,
            Plan::Seq(seq) => {
                break eval_seq_leaf(&mut st, &seq.order, query, schema, model, src, metrics)
            }
            Plan::Split { attr, cut, lo, hi } => {
                let v = st.fetch(*attr, schema, model, src, metrics);
                node = if v < *cut { lo } else { hi };
            }
        }
    };
    if let Some(m) = metrics {
        m.tuples.incr(1);
        m.outputs.incr(u64::from(verdict));
        m.cost_total.add(st.cost);
        m.cost_per_tuple.observe(st.cost.round().max(0.0) as u64);
        m.acquisitions_per_tuple.observe(st.acquired.len() as u64);
    }
    st.into_outcome(verdict)
}

/// Evaluates one sequential leaf — predicates in `order`, early
/// termination on the first failure — fetching each predicate's
/// attribute through `st` and recording per-predicate outcomes.
///
/// This is *the* scalar predicate kernel: the tree executor above, the
/// sensornet wire interpreter and the vectorized path's per-leaf cost
/// tables all go through it (directly or via [`TupleState::charge`]),
/// so the paths cannot drift semantically.
pub fn eval_seq_leaf(
    st: &mut TupleState,
    order: &[usize],
    query: &Query,
    schema: &Schema,
    model: &crate::costmodel::CostModel,
    src: &mut impl TupleSource,
    metrics: Option<&ExecMetrics>,
) -> bool {
    for &j in order {
        let p = query.pred(j);
        let v = st.fetch(p.attr(), schema, model, src, metrics);
        let held = p.eval(v);
        if let Some(m) = metrics {
            m.pred_evaluated[j].incr(1);
            m.pred_passed[j].incr(u64::from(held));
        }
        if !held {
            return false;
        }
    }
    true
}

/// Pre-hoisted executor instruments (`exec.*`), built once per
/// measurement run so the per-tuple hot path records through lock-free
/// handles. See `DESIGN.md` §8 for the metric names.
#[derive(Debug)]
pub struct ExecMetrics {
    /// `exec.acquire.<attr>` — acquisitions charged, per attribute.
    pub(crate) acquire: Vec<Counter>,
    /// `exec.tuples` — tuples executed.
    pub(crate) tuples: Counter,
    /// `exec.outputs` — tuples the plan output.
    pub(crate) outputs: Counter,
    /// `exec.cost_total` — summed acquisition cost over all tuples.
    pub(crate) cost_total: FloatCounter,
    /// `exec.cost_per_tuple` — per-tuple cost distribution (rounded).
    pub(crate) cost_per_tuple: Hist,
    /// `exec.acquisitions_per_tuple` — attributes acquired per tuple.
    pub(crate) acquisitions_per_tuple: Hist,
    /// `exec.pred<j>.evaluated` — times predicate `j` was evaluated.
    pub(crate) pred_evaluated: Vec<Counter>,
    /// `exec.pred<j>.passed` — times predicate `j` held.
    pub(crate) pred_passed: Vec<Counter>,
    /// `exec.batch.*` — batch-path instruments (zero on scalar runs;
    /// registering them unconditionally keeps snapshots mode-agnostic).
    pub(crate) batch: crate::batch::BatchMetrics,
}

impl ExecMetrics {
    /// Registers the executor instruments for `schema`/`query` on `rec`.
    pub fn new(rec: &Recorder, schema: &Schema, query: &Query) -> Self {
        ExecMetrics {
            acquire: (0..schema.len())
                .map(|a| rec.counter(&format!("exec.acquire.{}", schema.attr(a).name())))
                .collect(),
            tuples: rec.counter("exec.tuples"),
            outputs: rec.counter("exec.outputs"),
            cost_total: rec.float_counter("exec.cost_total"),
            cost_per_tuple: rec.hist("exec.cost_per_tuple"),
            acquisitions_per_tuple: rec.hist("exec.acquisitions_per_tuple"),
            pred_evaluated: (0..query.len())
                .map(|j| rec.counter(&format!("exec.pred{j}.evaluated")))
                .collect(),
            pred_passed: (0..query.len())
                .map(|j| rec.counter(&format!("exec.pred{j}.passed")))
                .collect(),
            batch: crate::batch::BatchMetrics::new(rec),
        }
    }

    /// Observed pass fraction of predicate `j` (its actual selectivity
    /// over the tuples that evaluated it), or `None` before any
    /// evaluation.
    pub fn actual_selectivity(&self, j: usize) -> Option<f64> {
        let n = self.pred_evaluated[j].value();
        (n > 0).then(|| self.pred_passed[j].value() as f64 / n as f64)
    }

    /// Cumulative `(evaluated, passed)` counts for predicate `j` — the
    /// raw inputs behind [`ExecMetrics::actual_selectivity`], consumed
    /// by the drift monitor.
    pub fn pred_counts(&self, j: usize) -> (u64, u64) {
        (self.pred_evaluated[j].value(), self.pred_passed[j].value())
    }
}

/// Per-tuple acquisition state: the value cache, the acquired-set
/// bitmask, the running cost and the acquisition order. Shared by the
/// tree executor, the sensornet wire interpreter and the vectorized
/// path's plan preparation, so every path charges Eq. (1) through the
/// same arithmetic.
#[derive(Debug, Clone)]
pub struct TupleState {
    cache: Vec<Option<u16>>,
    mask: u64,
    cost: f64,
    acquired: Vec<AttrId>,
}

impl TupleState {
    /// Fresh state for a schema of `n_attrs` attributes: nothing
    /// acquired, zero cost.
    pub fn new(n_attrs: usize) -> TupleState {
        TupleState { cache: vec![None; n_attrs], mask: 0, cost: 0.0, acquired: Vec::new() }
    }

    /// Returns the state to [`TupleState::new`]`(n_attrs)` for the next
    /// tuple, keeping its buffers' capacity.
    pub fn reset(&mut self, n_attrs: usize) {
        self.cache.clear();
        self.cache.resize(n_attrs, None);
        self.mask = 0;
        self.cost = 0.0;
        self.acquired.clear();
    }

    /// Returns `attr`'s value, acquiring (and charging) it on first use;
    /// re-reads are free per Eq. (1).
    #[inline]
    pub fn fetch(
        &mut self,
        attr: AttrId,
        schema: &Schema,
        model: &crate::costmodel::CostModel,
        src: &mut impl TupleSource,
        metrics: Option<&ExecMetrics>,
    ) -> u16 {
        if let Some(v) = self.cache[attr] {
            return v;
        }
        let v = src.acquire(attr);
        self.cache[attr] = Some(v);
        self.charge(attr, schema, model);
        if let Some(m) = metrics {
            m.acquire[attr].incr(1);
        }
        v
    }

    /// Charges the first acquisition of `attr` (cost under the current
    /// acquired mask, mask update, acquisition order) without reading a
    /// value — already-acquired attributes are a no-op. The vectorized
    /// plan preparation drives this against a value-less state to
    /// precompute every path's cost with scalar-identical arithmetic.
    #[inline]
    pub(crate) fn charge(
        &mut self,
        attr: AttrId,
        schema: &Schema,
        model: &crate::costmodel::CostModel,
    ) {
        let bit = 1u64 << attr;
        if self.mask & bit != 0 {
            return;
        }
        self.cost += model.cost(schema, attr, self.mask);
        self.mask |= bit;
        self.acquired.push(attr);
    }

    /// Acquired-set bitmask (bit `a` set once attribute `a` is charged).
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Running acquisition cost `C(P, x)` so far.
    pub fn cost(&self) -> f64 {
        self.cost
    }

    /// Attributes acquired so far, in acquisition order.
    pub fn acquired(&self) -> &[AttrId] {
        &self.acquired
    }

    /// Finalizes the walk into an [`ExecOutcome`].
    pub fn into_outcome(self, verdict: bool) -> ExecOutcome {
        ExecOutcome { verdict, cost: self.cost, acquired: self.acquired }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;
    use crate::plan::SeqOrder;
    use crate::query::Pred;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::new("x0", 4, 10.0),
            Attribute::new("x1", 4, 20.0),
            Attribute::new("x2", 4, 1.0),
        ])
        .unwrap()
    }

    fn query() -> Query {
        Query::new(vec![Pred::in_range(0, 0, 1), Pred::in_range(1, 2, 3)]).unwrap()
    }

    struct FixedTuple(Vec<u16>, usize);
    impl TupleSource for FixedTuple {
        fn acquire(&mut self, attr: AttrId) -> u16 {
            self.1 += 1;
            self.0[attr]
        }
    }

    #[test]
    fn seq_early_termination() {
        let s = schema();
        let q = query();
        let plan = Plan::Seq(SeqOrder::new(vec![0, 1]));
        // First predicate fails -> only x0 acquired.
        let mut src = FixedTuple(vec![3, 3, 0], 0);
        let out = execute(&plan, &q, &s, &mut src);
        assert!(!out.verdict);
        assert_eq!(out.cost, 10.0);
        assert_eq!(out.acquired, vec![0]);
        assert_eq!(src.1, 1);

        // Both pass -> both acquired.
        let mut src = FixedTuple(vec![1, 2, 0], 0);
        let out = execute(&plan, &q, &s, &mut src);
        assert!(out.verdict);
        assert_eq!(out.cost, 30.0);
        assert_eq!(out.acquired, vec![0, 1]);
    }

    #[test]
    fn split_routes_and_charges_once() {
        let s = schema();
        let q = query();
        // Condition on cheap x2, then different orders; re-split on x2 is free.
        let plan = Plan::split(
            2,
            2,
            Plan::split(2, 1, Plan::fail(), Plan::Seq(SeqOrder::new(vec![1, 0]))),
            Plan::Seq(SeqOrder::new(vec![0, 1])),
        );
        // x2 = 1 -> lo branch -> inner split (free) -> hi -> eval pred1 first.
        let mut src = FixedTuple(vec![0, 2, 1], 0);
        let out = execute(&plan, &q, &s, &mut src);
        assert!(out.verdict);
        // x2 once (1.0) + x1 (20) + x0 (10)
        assert_eq!(out.cost, 31.0);
        assert_eq!(out.acquired, vec![2, 1, 0]);
        assert_eq!(src.1, 3, "x2 must be acquired exactly once");

        // x2 = 0 -> lo, lo -> REJECT with only x2 acquired.
        let mut src = FixedTuple(vec![0, 2, 0], 0);
        let out = execute(&plan, &q, &s, &mut src);
        assert!(!out.verdict);
        assert_eq!(out.cost, 1.0);
    }

    #[test]
    fn decided_leaf_costs_nothing() {
        let s = schema();
        let q = query();
        let out = execute(&Plan::pass(), &q, &s, &mut FixedTuple(vec![0, 0, 0], 0));
        assert!(out.verdict);
        assert_eq!(out.cost, 0.0);
        assert!(out.acquired.is_empty());
    }

    #[test]
    fn row_source_reads_dataset() {
        let s = schema();
        let d = Dataset::from_rows(&s, vec![vec![1, 2, 3], vec![0, 0, 0]]).unwrap();
        let q = query();
        let plan = Plan::Seq(SeqOrder::new(vec![0, 1]));
        let out = execute(&plan, &q, &s, &mut RowSource::new(&d, 0));
        assert!(out.verdict);
        let out = execute(&plan, &q, &s, &mut RowSource::new(&d, 1));
        assert!(!out.verdict);
    }

    #[test]
    fn metered_execution_counts_acquisitions_and_predicates() {
        use acqp_obs::NoopSink;
        use std::sync::Arc;

        let s = schema();
        let q = query();
        let rec = Recorder::new(Arc::new(NoopSink));
        let m = ExecMetrics::new(&rec, &s, &q);
        let plan = Plan::Seq(SeqOrder::new(vec![0, 1]));
        let model = crate::costmodel::CostModel::PerAttribute;
        // Row 1: pred0 fails (only x0 acquired). Row 2: both pass.
        for row in [vec![3, 3, 0], vec![1, 2, 0]] {
            execute_metered(&plan, &q, &s, &model, &mut FixedTuple(row, 0), &m);
        }
        let snap = rec.drain();
        assert_eq!(snap.counter("exec.tuples"), 2);
        assert_eq!(snap.counter("exec.outputs"), 1);
        assert_eq!(snap.counter("exec.acquire.x0"), 2);
        assert_eq!(snap.counter("exec.acquire.x1"), 1);
        assert_eq!(snap.counter("exec.acquire.x2"), 0);
        assert_eq!(snap.counter("exec.pred0.evaluated"), 2);
        assert_eq!(snap.counter("exec.pred0.passed"), 1);
        assert_eq!(snap.counter("exec.pred1.evaluated"), 1);
        assert_eq!(snap.counter("exec.pred1.passed"), 1);
        assert!((snap.value("exec.cost_total") - 40.0).abs() < 1e-9);
        assert_eq!(snap.hists["exec.acquisitions_per_tuple"].1, 2);
        assert!((m.actual_selectivity(0).unwrap() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_seq_outputs() {
        let s = schema();
        let q = query();
        let out =
            execute(&Plan::Seq(SeqOrder::default()), &q, &s, &mut FixedTuple(vec![3, 0, 0], 0));
        assert!(out.verdict);
        assert_eq!(out.cost, 0.0);
    }
}
