//! # acqp-core — conditional plans for acquisitional query processing
//!
//! This crate implements the algorithms of *"Exploiting Correlated
//! Attributes in Acquisitional Query Processing"* (Deshpande, Guestrin,
//! Hong, Madden — ICDE 2005).
//!
//! In acquisitional systems — sensor networks, wide-area sources — reading
//! one attribute of one tuple carries a high cost (energy, latency). For a
//! multi-predicate range query, the order in which predicates are
//! evaluated therefore matters enormously, and because attributes are
//! *correlated*, the best order differs from tuple to tuple. The paper's
//! contribution, reproduced here, is the **conditional plan**: a binary
//! decision tree that observes cheap attributes and branches into
//! different predicate orderings depending on what it sees.
//!
//! ## Layout
//!
//! * [`attr`] — attributes, acquisition costs, schemas.
//! * [`range`] — discretized value ranges and range vectors (the
//!   *subproblems* of the paper's dynamic program).
//! * [`dataset`] — column-major historical data plus discretization.
//! * [`query`] — unary range predicates and conjunctive queries.
//! * [`plan`] — the conditional-plan tree, its compact wire format
//!   (`ζ(P)` of §2.4) and pretty-printer.
//! * [`exec`] — the per-tuple plan interpreter implementing the traversal
//!   cost of Eq. (1).
//! * [`cost`] — measured expected cost over a dataset (Eq. 4).
//! * [`drift`] — estimated-vs-actual selectivity monitoring on top of
//!   exec metering, the trigger for re-planning deployed plans.
//! * [`prob`] — probability estimation from historical data (§5).
//! * [`planner`] — `Naive`, `OptSeq`, `GreedySeq` (§4.1), the exhaustive
//!   dynamic program (Fig. 5), and the greedy conditional planner
//!   (Figs. 6–7), plus split-point selection (§4.3).
//!
//! ## Quick start
//!
//! ```
//! use acqp_core::prelude::*;
//!
//! // Two expensive sensors and one free clock, 4-valued domains.
//! let schema = Schema::new(vec![
//!     Attribute::new("temp", 4, 100.0),
//!     Attribute::new("light", 4, 100.0),
//!     Attribute::new("hour", 4, 1.0),
//! ]).unwrap();
//!
//! // Historical data where temp/light are perfectly predicted by hour.
//! let mut rows = Vec::new();
//! for hour in 0..4u16 {
//!     for _ in 0..8 {
//!         let temp = if hour >= 2 { 3 } else { 0 };
//!         let light = if hour >= 2 { 3 } else { 0 };
//!         rows.push(vec![temp, light, hour]);
//!     }
//! }
//! let data = Dataset::from_rows(&schema, rows).unwrap();
//!
//! // SELECT * WHERE temp >= 2 AND light <= 1
//! let query = Query::new(vec![
//!     Pred::in_range(0, 2, 3),
//!     Pred::in_range(1, 0, 1),
//! ]).unwrap();
//!
//! let est = CountingEstimator::new(&data);
//! let plan = GreedyPlanner::new(8).plan(&schema, &query, &est).unwrap();
//! let report = measure(&plan, &query, &schema, &data);
//! assert!(report.all_correct);
//! // The conditional plan reads the free clock and rejects every tuple
//! // after acquiring at most one expensive sensor.
//! assert!(report.mean_cost <= 101.0);
//! ```

#![warn(missing_docs)]
// Determinism tests assert bitwise-equal floats on purpose; the
// workspace-level `float_cmp` warning stays on for library code.
#![cfg_attr(test, allow(clippy::float_cmp))]
pub mod attr;
pub mod batch;
pub mod cost;
pub mod costmodel;
pub mod dataset;
pub mod drift;
pub mod error;
pub mod exec;
pub mod exists;
pub mod explain;
pub mod plan;
pub mod planner;
pub mod prob;
pub mod query;
pub mod range;
pub mod regret;

/// Convenient glob-import of the public API.
pub mod prelude {
    pub use crate::attr::{AttrId, Attribute, Schema};
    pub use crate::batch::{
        truth_columnar, BatchExecutor, BatchMetrics, BatchOutcome, ColumnBatch, FlatPlan,
        PreparedPlan, RowOutcome, BATCH_ROWS,
    };
    pub use crate::cost::{
        expected_cost, expected_cost_model, measure, measure_metered, measure_metered_mode,
        measure_mode, measure_model, measure_rows, CostReport,
    };
    pub use crate::costmodel::{acquired_mask, CostModel};
    pub use crate::dataset::{Dataset, Discretizer};
    pub use crate::drift::{estimated_selectivities, DriftConfig, DriftMonitor, DriftMonitorState};
    pub use crate::error::{Error, Result};
    pub use crate::exec::{
        eval_seq_leaf, execute, execute_metered, execute_model, ExecMetrics, ExecMode, ExecOutcome,
        QueryStatus, RowSource, TupleSource, TupleState,
    };
    pub use crate::exists::{
        execute_exists, measure_exists, BranchStep, ExistsPlan, ExistsPlanner, ExistsQuery,
    };
    pub use crate::explain::{explain, ExplainNode, SeqStepInfo};
    pub use crate::plan::{Plan, SeqOrder};
    pub use crate::planner::{
        enumerate_plans, full_tree_count, DegradationLevel, EnumeratedPlans, ExhaustivePlanner,
        FallbackPlanner, GreedyPlanner, NaivePlanner, OrdF64, PlanReport, SeqAlgorithm, SeqPlanner,
        SplitGrid,
    };
    pub use crate::prob::{
        CountingEstimator, Estimator, IndependenceEstimator, TruthAccum, TruthTable,
    };
    pub use crate::query::{Pred, Query};
    pub use crate::range::{Range, Ranges};
    pub use crate::regret::{regret_report, NodeCostRow, PredRegret, RegretReport};
}

pub use prelude::*;
