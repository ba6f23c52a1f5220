//! Vectorized columnar plan execution (`DESIGN.md` §12).
//!
//! The scalar executor of [`crate::exec`] walks one tuple at a time:
//! per tuple it chases `Box` pointers through the plan tree, consults
//! the cost model on every first acquisition and early-terminates the
//! leaf's predicate loop. This module evaluates the same conditional
//! plan over *batches* of tuples instead:
//!
//! * [`ColumnBatch`] — typed column slices plus an optional validity
//!   mask; predicates run as tight loops over `&[u16]`.
//! * [`FlatPlan`] — the plan tree flattened into an index-linked arena,
//!   so traversal never chases a `Box`.
//! * [`PreparedPlan`] — a [`FlatPlan`] specialized to one
//!   `(query, schema, cost model)`: every tuple reaching a given node
//!   has walked the same root path, so its acquisition mask, running
//!   cost and acquisition order are *node constants*. Preparation
//!   computes them once by driving the scalar path's own
//!   [`TupleState::charge`] arithmetic, which is what makes per-tuple
//!   costs bitwise-equal to the scalar walk by construction.
//! * [`BatchExecutor`] — traverses a prepared plan with selection
//!   vectors: split nodes stably partition the selection, sequential
//!   leaves compact it per predicate with branch-free unconditional
//!   exit-state writes.
//!
//! The contract is **bitwise equivalence** with [`crate::exec::execute`]
//! on every tuple — verdicts, `f64` costs, acquisition order, and all
//! metered `exec.*` metrics. The differential harness in
//! `tests/vectorized_equivalence.rs` enforces it property-wise; the
//! batch path additionally records its own `exec.batch.*` subtree.

use acqp_obs::{Counter, FlightRecorder, Hist, Recorder};

use crate::attr::{AttrId, Schema};
use crate::costmodel::CostModel;
use crate::dataset::Dataset;
use crate::exec::{ExecMetrics, ExecOutcome, TupleState};
use crate::plan::Plan;
use crate::query::{Pred, Query};

/// Tuples per batch window for the chunked entry points
/// ([`crate::cost::measure_mode`] and trace replay). One batch of
/// `u16` columns stays comfortably inside L1 even for wide schemas.
pub const BATCH_ROWS: usize = 1024;

/// A batch of tuples in columnar layout: one `&[u16]` slice per schema
/// attribute, all of equal length, plus an optional validity mask for
/// batches with gaps (row subsets that are not contiguous).
#[derive(Debug, Clone)]
pub struct ColumnBatch<'a> {
    cols: Vec<&'a [u16]>,
    rows: usize,
    valid: Option<&'a [bool]>,
}

impl<'a> ColumnBatch<'a> {
    /// A batch over every row of `data`, all valid.
    pub fn from_dataset(data: &'a Dataset) -> ColumnBatch<'a> {
        ColumnBatch::slice(data, 0, data.len())
    }

    /// A batch over the contiguous window `start..start + rows` of
    /// `data`. The window must lie inside the dataset (same contract as
    /// reading those rows through [`crate::exec::RowSource`]).
    pub fn slice(data: &'a Dataset, start: usize, rows: usize) -> ColumnBatch<'a> {
        let cols: Vec<&[u16]> =
            (0..data.width()).map(|a| &data.column(a)[start..start + rows]).collect();
        ColumnBatch { cols, rows, valid: None }
    }

    /// Attaches a validity mask: slot `i` participates only when
    /// `valid[i]`. The mask must cover every row of the batch.
    pub fn with_validity(mut self, valid: &'a [bool]) -> ColumnBatch<'a> {
        assert_eq!(valid.len(), self.rows, "validity mask must cover the batch");
        self.valid = Some(valid);
        self
    }

    /// Number of slots (valid or not) in the batch.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// The column slice of attribute `a`.
    pub fn col(&self, a: AttrId) -> &'a [u16] {
        self.cols[a]
    }

    /// Whether slot `slot` participates in execution.
    pub fn is_valid(&self, slot: usize) -> bool {
        self.valid.is_none_or(|v| v[slot])
    }
}

/// One node of an arena-flattened plan. Children are arena indices, so
/// the executor's traversal is pointer-chase-free.
#[derive(Debug, Clone, Copy)]
enum FlatNode {
    /// Decided leaf: accept (`true`) or reject.
    Decided(bool),
    /// Sequential leaf: `seq_arena[start..start + len]` holds the
    /// predicate indices in evaluation order.
    Seq { start: u32, len: u32 },
    /// Conditioning split on `attr` at `cut`; `lo`/`hi` are node ids.
    Split { attr: u32, cut: u16, lo: u32, hi: u32 },
}

/// A conditional plan flattened into two arenas: nodes (index-linked,
/// root at 0) and the concatenated predicate orders of every
/// sequential leaf.
#[derive(Debug, Clone, Default)]
pub struct FlatPlan {
    nodes: Vec<FlatNode>,
    seq_arena: Vec<u32>,
}

impl FlatPlan {
    /// Flattens `plan` (root becomes node 0).
    pub fn from_plan(plan: &Plan) -> FlatPlan {
        let mut fp = FlatPlan::default();
        fp.push(plan);
        fp
    }

    fn push(&mut self, p: &Plan) -> u32 {
        let at = self.nodes.len() as u32;
        match p {
            Plan::Decided(b) => self.nodes.push(FlatNode::Decided(*b)),
            Plan::Seq(seq) => {
                let start = self.seq_arena.len() as u32;
                self.seq_arena.extend(seq.order.iter().map(|&j| j as u32));
                self.nodes.push(FlatNode::Seq { start, len: seq.order.len() as u32 });
            }
            Plan::Split { attr, cut, lo, hi } => {
                // Reserve the slot first so children land after their
                // parent; patch the child ids once both are placed.
                self.nodes.push(FlatNode::Decided(false));
                let lo = self.push(lo);
                let hi = self.push(hi);
                self.nodes[at as usize] = FlatNode::Split { attr: *attr as u32, cut: *cut, lo, hi };
            }
        }
        at
    }

    /// Number of arena nodes (equals [`Plan::node_count`]).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Shared per-node entry state: what every tuple reaching this node has
/// already acquired and paid. `chain_start..+chain_len` indexes the
/// prepared plan's acquisition-order arena.
#[derive(Debug, Clone, Copy)]
struct NodeEntry {
    cost: f64,
    chain_start: u32,
    chain_len: u32,
}

/// One precomputed step of a sequential leaf: the predicate to apply
/// (embedded by value — [`Pred`] is `Copy`) and the exit state of any
/// tuple stopping *at* this step (the fetch precedes the evaluation, so
/// a failing tuple still pays this step's acquisition).
#[derive(Debug, Clone, Copy)]
struct LeafStep {
    pred: Pred,
    pred_idx: u32,
    attr: u32,
    newly_acquired: bool,
    cost_after: f64,
    chain_len_after: u32,
}

/// Step range of a sequential leaf in the step arena.
#[derive(Debug, Clone, Copy, Default)]
struct LeafRange {
    start: u32,
    len: u32,
}

/// A [`FlatPlan`] specialized to a `(query, schema, cost model)` triple:
/// all path-dependent quantities of the scalar walk — acquisition
/// masks, running costs, acquisition orders — hoisted into node
/// constants, computed once through the scalar [`TupleState::charge`]
/// kernel so execution reproduces the scalar `f64` addition sequence
/// exactly. Build once per plan, reuse across batches.
#[derive(Debug, Clone)]
pub struct PreparedPlan {
    flat: FlatPlan,
    entry: Vec<NodeEntry>,
    /// For split nodes: whether the split's fetch is a first
    /// acquisition on this path (charged + counted) or a free re-read.
    split_newly: Vec<bool>,
    leaf: Vec<LeafRange>,
    steps: Vec<LeafStep>,
    /// Acquisition-order arena: each node owns one contiguous run
    /// holding its full chain (entry prefix plus, for sequential
    /// leaves, the per-step extensions).
    chains: Vec<AttrId>,
    n_attrs: usize,
    n_preds: usize,
}

impl PreparedPlan {
    /// Prepares `plan` for batch execution under `query`/`schema`/
    /// `model`.
    pub fn new(plan: &Plan, query: &Query, schema: &Schema, model: &CostModel) -> PreparedPlan {
        let flat = FlatPlan::from_plan(plan);
        let n = flat.node_count();
        let mut pp = PreparedPlan {
            flat,
            entry: vec![NodeEntry { cost: 0.0, chain_start: 0, chain_len: 0 }; n],
            split_newly: vec![false; n],
            leaf: vec![LeafRange::default(); n],
            steps: Vec::new(),
            chains: Vec::new(),
            n_attrs: schema.len(),
            n_preds: query.len(),
        };
        pp.prep_node(0, TupleState::new(schema.len()), query, schema, model);
        pp
    }

    fn prep_node(
        &mut self,
        node: u32,
        mut st: TupleState,
        query: &Query,
        schema: &Schema,
        model: &CostModel,
    ) {
        let n = node as usize;
        match self.flat.nodes[n] {
            FlatNode::Decided(_) => {
                self.entry[n] = self.record_chain(&st);
            }
            FlatNode::Seq { start, len } => {
                let entry_cost = st.cost();
                let entry_len = st.acquired().len() as u32;
                let step_start = self.steps.len() as u32;
                for k in 0..len {
                    let j = self.flat.seq_arena[(start + k) as usize] as usize;
                    let p = query.pred(j);
                    let a = p.attr();
                    let newly_acquired = st.mask() & (1u64 << a) == 0;
                    st.charge(a, schema, model);
                    self.steps.push(LeafStep {
                        pred: p,
                        pred_idx: j as u32,
                        attr: a as u32,
                        newly_acquired,
                        cost_after: st.cost(),
                        chain_len_after: st.acquired().len() as u32,
                    });
                }
                self.leaf[n] = LeafRange { start: step_start, len };
                // The node's chain run holds the *fully extended* chain;
                // entry/step lengths are prefixes of it.
                let full = self.record_chain(&st);
                self.entry[n] = NodeEntry {
                    cost: entry_cost,
                    chain_start: full.chain_start,
                    chain_len: entry_len,
                };
            }
            FlatNode::Split { attr, lo, hi, .. } => {
                let a = attr as usize;
                self.split_newly[n] = st.mask() & (1u64 << a) == 0;
                st.charge(a, schema, model);
                self.prep_node(lo, st.clone(), query, schema, model);
                self.prep_node(hi, st, query, schema, model);
            }
        }
    }

    /// Appends `st`'s acquisition chain as a fresh arena run.
    fn record_chain(&mut self, st: &TupleState) -> NodeEntry {
        let chain_start = self.chains.len() as u32;
        self.chains.extend_from_slice(st.acquired());
        NodeEntry { cost: st.cost(), chain_start, chain_len: st.acquired().len() as u32 }
    }

    /// Number of flattened plan nodes.
    pub fn node_count(&self) -> usize {
        self.flat.node_count()
    }

    /// The acquisition chain at `start..start + len` of the plan's
    /// arena, as returned by [`BatchOutcome::chain_span`] (empty for a
    /// span outside the arena).
    pub fn chain(&self, start: u32, len: u32) -> &[AttrId] {
        self.chains.get(start as usize..start as usize + len as usize).unwrap_or_default()
    }

    /// Executes the plan for row `row` of `data` alone: the one-row
    /// walk of the same node and exit tables [`BatchExecutor`] sweeps,
    /// so its verdict, cost bits and chain span are exactly what a
    /// batch over that row would store. `row` must lie inside `data`.
    pub fn walk_row(&self, data: &Dataset, row: usize) -> RowOutcome {
        let mut n = 0usize;
        loop {
            match self.flat.nodes[n] {
                FlatNode::Decided(verdict) => {
                    let e = self.entry[n];
                    return RowOutcome {
                        verdict,
                        cost: e.cost,
                        chain: (e.chain_start, e.chain_len),
                    };
                }
                FlatNode::Seq { .. } => {
                    let lf = self.leaf[n];
                    let e = self.entry[n];
                    let steps = &self.steps[lf.start as usize..(lf.start + lf.len) as usize];
                    let mut exit = (true, e.cost, e.chain_len);
                    for step in steps {
                        let pass = step.pred.eval(data.value(row, step.attr as usize));
                        exit = (pass, step.cost_after, step.chain_len_after);
                        if !pass {
                            break;
                        }
                    }
                    let (verdict, cost, len) = exit;
                    return RowOutcome { verdict, cost, chain: (e.chain_start, len) };
                }
                FlatNode::Split { attr, cut, lo, hi } => {
                    n = if data.value(row, attr as usize) < cut { lo } else { hi } as usize;
                }
            }
        }
    }
}

/// One row's outcome from [`PreparedPlan::walk_row`]: the verdict, the
/// acquisition cost `C(P, x)` and the chain as a `(start, len)` span of
/// the plan's arena.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowOutcome {
    /// The plan's verdict.
    pub verdict: bool,
    /// Acquisition cost, bitwise equal to the scalar walk's.
    pub cost: f64,
    /// The acquisition chain, resolved with [`PreparedPlan::chain`].
    pub chain: (u32, u32),
}

/// Per-slot outcomes of executing a prepared plan over one batch.
/// Chains are `(start, len)` references into the plan's arena — call
/// [`BatchOutcome::acquired`] to resolve one, or
/// [`BatchOutcome::outcome`] to materialize a scalar-shaped
/// [`ExecOutcome`]. Slots that were invalid in the batch keep their
/// reset values (reject, zero cost, empty chain).
#[derive(Debug, Clone, Default)]
pub struct BatchOutcome {
    verdicts: Vec<bool>,
    costs: Vec<f64>,
    chain_start: Vec<u32>,
    chain_len: Vec<u32>,
}

impl BatchOutcome {
    fn reset(&mut self, rows: usize) {
        self.verdicts.clear();
        self.verdicts.resize(rows, false);
        self.costs.clear();
        self.costs.resize(rows, 0.0);
        self.chain_start.clear();
        self.chain_start.resize(rows, 0);
        self.chain_len.clear();
        self.chain_len.resize(rows, 0);
    }

    /// Number of slots.
    pub fn rows(&self) -> usize {
        self.verdicts.len()
    }

    /// The plan's verdict for `slot`.
    pub fn verdict(&self, slot: usize) -> bool {
        self.verdicts[slot]
    }

    /// Acquisition cost `C(P, x)` charged for `slot` — bitwise equal to
    /// the scalar walk's.
    pub fn cost(&self, slot: usize) -> f64 {
        self.costs[slot]
    }

    /// Number of attributes acquired for `slot`.
    pub fn acquisitions(&self, slot: usize) -> usize {
        self.chain_len[slot] as usize
    }

    /// Attributes acquired for `slot`, in acquisition order, resolved
    /// against the plan the batch was executed with.
    pub fn acquired<'p>(&self, plan: &'p PreparedPlan, slot: usize) -> &'p [AttrId] {
        plan.chain(self.chain_start[slot], self.chain_len[slot])
    }

    /// `slot`'s acquisition chain as a `(start, len)` span of the
    /// prepared plan's arena: eight bytes a caller can keep per slot and
    /// resolve later with [`PreparedPlan::chain`].
    pub fn chain_span(&self, slot: usize) -> (u32, u32) {
        (self.chain_start[slot], self.chain_len[slot])
    }

    /// Materializes `slot` as a scalar-shaped [`ExecOutcome`] (used by
    /// the differential tests to compare paths field-for-field).
    pub fn outcome(&self, plan: &PreparedPlan, slot: usize) -> ExecOutcome {
        ExecOutcome {
            verdict: self.verdicts[slot],
            cost: self.costs[slot],
            acquired: self.acquired(plan, slot).to_vec(),
        }
    }
}

/// Pre-hoisted `exec.batch.*` instruments (see `DESIGN.md` §8),
/// recording batch-path shape: batch count, vectorized tuple count,
/// selection-vector partitions and per-batch occupancy.
#[derive(Debug)]
pub struct BatchMetrics {
    /// `exec.batch.batches` — column batches executed.
    batches: Counter,
    /// `exec.batch.rows` — tuples executed through the batch path.
    rows: Counter,
    /// `exec.batch.partitions` — selection-vector partitions at splits.
    partitions: Counter,
    /// `exec.batch.fill` — valid tuples per executed batch.
    fill: Hist,
    /// Flight handle for the batch-stage trace events emitted by
    /// [`measure_vectorized`]; disabled unless the recorder carries one.
    pub(crate) flight: FlightRecorder,
}

impl BatchMetrics {
    /// Registers the batch instruments on `rec`.
    pub fn new(rec: &Recorder) -> Self {
        BatchMetrics {
            batches: rec.counter("exec.batch.batches"),
            rows: rec.counter("exec.batch.rows"),
            partitions: rec.counter("exec.batch.partitions"),
            fill: rec.hist("exec.batch.fill"),
            flight: rec.flight().clone(),
        }
    }
}

/// Reusable scratch for batch execution: the selection vector, the
/// partition scratch and per-batch metric tallies. Build once, feed it
/// any number of batches of the same prepared plan (or different plans
/// — scratch is resized per call).
#[derive(Debug, Default)]
pub struct BatchExecutor {
    sel: Vec<u32>,
    scratch: Vec<u32>,
    stack: Vec<(u32, usize, usize)>,
    acquire_tally: Vec<u64>,
    eval_tally: Vec<u64>,
    pass_tally: Vec<u64>,
    alive: Vec<u8>,
    survived: Vec<u8>,
    cost_table: Vec<f64>,
    len_table: Vec<u32>,
}

impl BatchExecutor {
    /// Fresh executor with empty scratch.
    pub fn new() -> Self {
        BatchExecutor::default()
    }

    /// Executes `plan` over `batch`, writing per-slot outcomes into
    /// `out` (which is reset to the batch size). With `metrics`, the
    /// same `exec.*` series the scalar metered path records are updated
    /// — per-attribute acquisitions, per-predicate outcomes, per-tuple
    /// cost in slot order — plus the `exec.batch.*` subtree.
    pub fn execute_batch(
        &mut self,
        plan: &PreparedPlan,
        batch: &ColumnBatch<'_>,
        metrics: Option<&ExecMetrics>,
        out: &mut BatchOutcome,
    ) {
        out.reset(batch.rows());
        self.sel.clear();
        match batch.valid {
            None => self.sel.extend(0..batch.rows() as u32),
            Some(v) => {
                self.sel.extend((0..batch.rows()).filter(|&i| v[i]).map(|i| i as u32));
            }
        }
        let valid_rows = self.sel.len();
        self.scratch.resize(valid_rows, 0);
        self.acquire_tally.clear();
        self.acquire_tally.resize(plan.n_attrs, 0);
        self.eval_tally.clear();
        self.eval_tally.resize(plan.n_preds, 0);
        self.pass_tally.clear();
        self.pass_tally.resize(plan.n_preds, 0);
        let mut partitions = 0u64;

        // Root-level sequential plans over a dense (unmasked) batch skip
        // the selection machinery entirely: every predicate becomes one
        // branch-free sweep over raw column slices, with per-row alive
        // and survived-step counters the compiler auto-vectorizes. The
        // survived count indexes a per-step exit table, so the slot
        // outcomes (and every metric tally) are identical to the
        // compaction path's.
        if batch.valid.is_none() {
            if let FlatNode::Seq { .. } = plan.flat.nodes[0] {
                if plan.leaf[0].len as usize <= usize::from(u8::MAX) {
                    self.run_seq_dense(plan, batch, out);
                    if let Some(m) = metrics {
                        self.flush_metrics(m, out, batch, valid_rows, 0);
                    }
                    return;
                }
            }
        }

        self.stack.clear();
        self.stack.push((0, 0, valid_rows));
        while let Some((node, s, len)) = self.stack.pop() {
            if len == 0 {
                continue;
            }
            let n = node as usize;
            match plan.flat.nodes[n] {
                FlatNode::Decided(b) => {
                    let e = plan.entry[n];
                    for &r in &self.sel[s..s + len] {
                        let ri = r as usize;
                        out.verdicts[ri] = b;
                        out.costs[ri] = e.cost;
                        out.chain_start[ri] = e.chain_start;
                        out.chain_len[ri] = e.chain_len;
                    }
                }
                FlatNode::Seq { .. } => {
                    self.run_seq_leaf(plan, batch, n, s, len, out);
                }
                FlatNode::Split { attr, cut, lo, hi } => {
                    let a = attr as usize;
                    if plan.split_newly[n] {
                        self.acquire_tally[a] += len as u64;
                    }
                    partitions += 1;
                    let col = batch.col(a);
                    // Stable branch-free partition: every element is
                    // written to both candidate positions; the index
                    // that advances decides which write sticks.
                    let mut k = 0usize;
                    let mut h = 0usize;
                    for i in 0..len {
                        let r = self.sel[s + i];
                        let is_lo = usize::from(col[r as usize] < cut);
                        self.scratch[h] = r;
                        self.sel[s + k] = r;
                        k += is_lo;
                        h += 1 - is_lo;
                    }
                    self.sel[s + k..s + len].copy_from_slice(&self.scratch[..h]);
                    self.stack.push((hi, s + k, len - k));
                    self.stack.push((lo, s, k));
                }
            }
        }

        if let Some(m) = metrics {
            self.flush_metrics(m, out, batch, valid_rows, partitions);
        }
    }

    /// Runs one sequential leaf over the selection segment
    /// `sel[s..s + len]`: per step, a tight compaction loop with
    /// unconditional exit-state writes (survivors are overwritten by
    /// the next step, and finally by the pass splat).
    fn run_seq_leaf(
        &mut self,
        plan: &PreparedPlan,
        batch: &ColumnBatch<'_>,
        n: usize,
        s: usize,
        len: usize,
        out: &mut BatchOutcome,
    ) {
        let lf = plan.leaf[n];
        let e = plan.entry[n];
        let steps = &plan.steps[lf.start as usize..(lf.start + lf.len) as usize];
        let mut n_sel = len;
        for step in steps {
            if n_sel == 0 {
                break;
            }
            self.eval_tally[step.pred_idx as usize] += n_sel as u64;
            if step.newly_acquired {
                self.acquire_tally[step.attr as usize] += n_sel as u64;
            }
            let col = batch.col(step.attr as usize);
            let pred = step.pred;
            // Branch-free dual compaction: passers stay in the selection
            // vector, failers land in scratch. Exit state is written once
            // per exiting row (it is one constant per step), not per
            // step per row — `reset` already cleared the verdicts.
            let mut kept = 0usize;
            let mut failed = 0usize;
            for i in 0..n_sel {
                let r = self.sel[s + i];
                let pass = pred.eval(col[r as usize]);
                self.scratch[failed] = r;
                self.sel[s + kept] = r;
                kept += usize::from(pass);
                failed += usize::from(!pass);
            }
            for &r in &self.scratch[..failed] {
                let ri = r as usize;
                out.costs[ri] = step.cost_after;
                out.chain_start[ri] = e.chain_start;
                out.chain_len[ri] = step.chain_len_after;
            }
            self.pass_tally[step.pred_idx as usize] += kept as u64;
            n_sel = kept;
        }
        let (final_cost, final_len) = match steps.last() {
            Some(last) => (last.cost_after, last.chain_len_after),
            None => (e.cost, e.chain_len),
        };
        for &r in &self.sel[s..s + n_sel] {
            let ri = r as usize;
            out.verdicts[ri] = true;
            out.costs[ri] = final_cost;
            out.chain_start[ri] = e.chain_start;
            out.chain_len[ri] = final_len;
        }
    }

    /// The dense root-leaf sweep: no selection vector, no compaction.
    /// Each step ANDs its predicate column into a per-row `alive` byte
    /// and bumps a per-row survived-step counter; a final pass maps
    /// survived counts through the precomputed exit tables. Rows dead at
    /// step `j` contribute nothing (`alive` masks the increment), so the
    /// outcome is exactly the compaction path's.
    fn run_seq_dense(
        &mut self,
        plan: &PreparedPlan,
        batch: &ColumnBatch<'_>,
        out: &mut BatchOutcome,
    ) {
        let rows = batch.rows();
        let lf = plan.leaf[0];
        let e = plan.entry[0];
        let steps = &plan.steps[lf.start as usize..(lf.start + lf.len) as usize];
        self.alive.clear();
        self.alive.resize(rows, 1);
        self.survived.clear();
        self.survived.resize(rows, 0);
        let mut n_alive = rows as u64;
        for step in steps {
            if n_alive == 0 {
                break;
            }
            self.eval_tally[step.pred_idx as usize] += n_alive;
            if step.newly_acquired {
                self.acquire_tally[step.attr as usize] += n_alive;
            }
            let col = batch.col(step.attr as usize);
            let pred = step.pred;
            for ((a, s), &v) in self.alive.iter_mut().zip(&mut self.survived).zip(col) {
                let live = *a & u8::from(pred.eval(v));
                *a = live;
                *s += live;
            }
            n_alive = self.alive.iter().map(|&a| u64::from(a)).sum();
            self.pass_tally[step.pred_idx as usize] += n_alive;
        }
        // Exit tables: surviving `k < len` steps means the row failed
        // step `k` (after paying its fetch); surviving all of them is
        // the pass state.
        self.cost_table.clear();
        self.len_table.clear();
        for step in steps {
            self.cost_table.push(step.cost_after);
            self.len_table.push(step.chain_len_after);
        }
        let (final_cost, final_len) = match steps.last() {
            Some(last) => (last.cost_after, last.chain_len_after),
            None => (e.cost, e.chain_len),
        };
        self.cost_table.push(final_cost);
        self.len_table.push(final_len);
        for i in 0..rows {
            let k = usize::from(self.survived[i]);
            out.verdicts[i] = self.alive[i] != 0;
            out.costs[i] = self.cost_table[k];
            out.chain_start[i] = e.chain_start;
            out.chain_len[i] = self.len_table[k];
        }
    }

    /// Flushes the batch's tallies into the shared `exec.*` series and
    /// records the `exec.batch.*` subtree. Counters are order-free and
    /// flushed in bulk; `exec.cost_total` is a float accumulator, so
    /// per-tuple costs are added in slot order — the same order the
    /// scalar metered loop adds them.
    fn flush_metrics(
        &self,
        m: &ExecMetrics,
        out: &BatchOutcome,
        batch: &ColumnBatch<'_>,
        valid_rows: usize,
        partitions: u64,
    ) {
        for (a, &t) in self.acquire_tally.iter().enumerate() {
            if t > 0 {
                m.acquire[a].incr(t);
            }
        }
        for (j, (&ev, &pa)) in self.eval_tally.iter().zip(&self.pass_tally).enumerate() {
            if ev > 0 {
                m.pred_evaluated[j].incr(ev);
            }
            if pa > 0 {
                m.pred_passed[j].incr(pa);
            }
        }
        let mut outputs = 0u64;
        for slot in 0..out.rows() {
            if !batch.is_valid(slot) {
                continue;
            }
            outputs += u64::from(out.verdicts[slot]);
            m.cost_total.add(out.costs[slot]);
            m.cost_per_tuple.observe(out.costs[slot].round().max(0.0) as u64);
            m.acquisitions_per_tuple.observe(u64::from(out.chain_len[slot]));
        }
        m.tuples.incr(valid_rows as u64);
        m.outputs.incr(outputs);
        m.batch.batches.incr(1);
        m.batch.rows.incr(valid_rows as u64);
        if partitions > 0 {
            m.batch.partitions.incr(partitions);
        }
        m.batch.fill.observe(valid_rows as u64);
    }
}

/// Columnar ground truth: `truth[i] = φ(row i)` over the batch, by
/// AND-folding each predicate's column sweep (the vectorized analogue
/// of [`Query::eval_with`] per row).
pub fn truth_columnar(query: &Query, batch: &ColumnBatch<'_>, truth: &mut Vec<bool>) {
    truth.clear();
    truth.resize(batch.rows(), true);
    for p in query.preds() {
        let col = batch.col(p.attr());
        for (t, &v) in truth.iter_mut().zip(col) {
            *t &= p.eval(v);
        }
    }
}

/// The vectorized measurement loop behind [`crate::cost::measure_mode`]:
/// `rows` must be strictly increasing (the caller falls back to the
/// scalar loop otherwise). Chunks the row list into [`BATCH_ROWS`]
/// windows — contiguous runs execute dense, gappy runs through a
/// validity mask — and accumulates the report in row order, so every
/// `f64` fold matches the scalar loop bitwise.
pub(crate) fn measure_vectorized(
    plan: &Plan,
    query: &Query,
    schema: &Schema,
    model: &CostModel,
    data: &Dataset,
    rows: &[usize],
    metrics: Option<&ExecMetrics>,
) -> crate::cost::CostReport {
    let prepared = PreparedPlan::new(plan, query, schema, model);
    // Stage trace: deterministic work tallies, never wall clock
    // (DESIGN.md §13.2) — the flight log stays bitwise-reproducible.
    let flight = metrics.map(|m| m.batch.flight.clone()).unwrap_or_default();
    let prep_seq = flight.emit(
        0,
        0,
        "exec.batch.prepare",
        &[("preds", query.len().into()), ("rows", rows.len().into())],
    );
    let mut exec = BatchExecutor::new();
    let mut out = BatchOutcome::default();
    let mut truth = Vec::new();
    let mut validity = Vec::new();

    let mut total = 0.0;
    let mut max_cost: f64 = 0.0;
    let mut passes = 0usize;
    let mut all_correct = true;
    let mut tuples = 0usize;
    let mut dense_batches = 0u64;
    let mut masked_batches = 0u64;
    for chunk in rows.chunks(BATCH_ROWS) {
        let start = chunk[0];
        let span = chunk[chunk.len() - 1] + 1 - start;
        let dense = span == chunk.len();
        if dense {
            dense_batches += 1;
        } else {
            masked_batches += 1;
        }
        let batch = if dense {
            ColumnBatch::slice(data, start, span)
        } else {
            validity.clear();
            validity.resize(span, false);
            for &row in chunk {
                validity[row - start] = true;
            }
            ColumnBatch::slice(data, start, span).with_validity(&validity)
        };
        exec.execute_batch(&prepared, &batch, metrics, &mut out);
        truth_columnar(query, &batch, &mut truth);
        for &row in chunk {
            let slot = row - start;
            total += out.cost(slot);
            max_cost = max_cost.max(out.cost(slot));
            passes += usize::from(out.verdict(slot));
            all_correct &= out.verdict(slot) == truth[slot];
            tuples += 1;
        }
    }
    flight.emit(
        0,
        prep_seq,
        "exec.batch.run",
        &[
            ("batches", (dense_batches + masked_batches).into()),
            ("dense", dense_batches.into()),
            ("masked", masked_batches.into()),
            ("tuples", tuples.into()),
            ("outputs", passes.into()),
            ("cost_total", total.into()),
        ],
    );
    let d = tuples.max(1) as f64;
    crate::cost::CostReport {
        mean_cost: total / d,
        max_cost,
        pass_rate: passes as f64 / d,
        all_correct,
        tuples,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::Attribute;
    use crate::exec::{execute_model, RowSource};
    use crate::plan::SeqOrder;

    fn setup() -> (Schema, Dataset, Query) {
        let schema = Schema::new(vec![
            Attribute::new("a", 8, 10.0),
            Attribute::new("b", 8, 20.0),
            Attribute::new("t", 8, 1.0),
        ])
        .unwrap();
        let rows: Vec<Vec<u16>> =
            (0..200u16).map(|i| vec![i % 8, (i / 8) % 8, (i * 3) % 8]).collect();
        let data = Dataset::from_rows(&schema, rows).unwrap();
        let query = Query::new(vec![Pred::in_range(0, 2, 5), Pred::not_in_range(1, 3, 6)]).unwrap();
        (schema, data, query)
    }

    fn plans() -> Vec<Plan> {
        vec![
            Plan::pass(),
            Plan::fail(),
            Plan::Seq(SeqOrder::new(vec![0, 1])),
            Plan::Seq(SeqOrder::new(vec![1, 0])),
            Plan::Seq(SeqOrder::default()),
            Plan::split(
                2,
                3,
                Plan::split(0, 3, Plan::fail(), Plan::Seq(SeqOrder::new(vec![0, 1]))),
                Plan::split(
                    1,
                    5,
                    Plan::Seq(SeqOrder::new(vec![1, 0])),
                    Plan::Seq(SeqOrder::new(vec![0])),
                ),
            ),
            // Re-split on an already-acquired attribute: free re-read.
            Plan::split(
                2,
                4,
                Plan::split(2, 2, Plan::Seq(SeqOrder::new(vec![0, 1])), Plan::fail()),
                Plan::Seq(SeqOrder::new(vec![1, 0])),
            ),
        ]
    }

    #[test]
    fn flattening_preserves_node_count() {
        for plan in plans() {
            assert_eq!(FlatPlan::from_plan(&plan).node_count(), plan.node_count());
        }
    }

    #[test]
    fn batch_outcomes_match_scalar_bitwise() {
        let (schema, data, query) = setup();
        for model in [CostModel::PerAttribute, CostModel::boards(3, &[(vec![0, 1], 100.0)])] {
            for plan in plans() {
                let prepared = PreparedPlan::new(&plan, &query, &schema, &model);
                let mut exec = BatchExecutor::new();
                let mut out = BatchOutcome::default();
                exec.execute_batch(&prepared, &ColumnBatch::from_dataset(&data), None, &mut out);
                for row in 0..data.len() {
                    let scalar = execute_model(
                        &plan,
                        &query,
                        &schema,
                        &model,
                        &mut RowSource::new(&data, row),
                    );
                    let vector = out.outcome(&prepared, row);
                    assert_eq!(scalar.verdict, vector.verdict, "row {row} plan {plan:?}");
                    assert_eq!(scalar.cost.to_bits(), vector.cost.to_bits());
                    assert_eq!(scalar.acquired, vector.acquired);
                }
            }
        }
    }

    #[test]
    fn validity_mask_skips_slots() {
        let (schema, data, query) = setup();
        let plan = Plan::Seq(SeqOrder::new(vec![0, 1]));
        let prepared = PreparedPlan::new(&plan, &query, &schema, &CostModel::PerAttribute);
        let valid: Vec<bool> = (0..data.len()).map(|i| i % 3 == 0).collect();
        let mut exec = BatchExecutor::new();
        let mut out = BatchOutcome::default();
        let batch = ColumnBatch::from_dataset(&data).with_validity(&valid);
        exec.execute_batch(&prepared, &batch, None, &mut out);
        for (row, &is_valid) in valid.iter().enumerate() {
            if is_valid {
                let scalar =
                    crate::exec::execute(&plan, &query, &schema, &mut RowSource::new(&data, row));
                assert_eq!(out.verdict(row), scalar.verdict);
            } else {
                assert!(!out.verdict(row), "invalid slots keep reset state");
                assert_eq!(out.acquisitions(row), 0);
            }
        }
    }

    #[test]
    fn measure_vectorized_empty_rows_is_safe() {
        let (schema, data, query) = setup();
        let plan = Plan::Seq(SeqOrder::new(vec![0, 1]));
        let rep =
            measure_vectorized(&plan, &query, &schema, &CostModel::PerAttribute, &data, &[], None);
        assert_eq!(rep.tuples, 0);
        assert_eq!(rep.mean_cost, 0.0);
        assert!(rep.all_correct);
    }
}
