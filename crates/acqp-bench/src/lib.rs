//! # acqp-bench — reproduction harness for the ICDE 2005 evaluation
//!
//! Shared machinery for the per-figure bench targets: a catalogue of the
//! paper's algorithms ([`Algo`]), a parallel per-query experiment runner
//! ([`run_batch`]), and small table/CDF printers so every bench prints
//! rows comparable to the paper's figures.
//!
//! Every bench target in `benches/` is `harness = false`: it regenerates
//! one figure or table deterministically and prints it. Run them all
//! with `cargo bench -p acqp-bench`.

// Determinism tests assert bitwise-equal floats on purpose; the
// workspace-level `float_cmp` warning stays on for library code.
#![cfg_attr(test, allow(clippy::float_cmp))]

use acqp_core::prelude::*;

pub mod report;

pub use report::{emit_bench_json, write_bench_json};

/// An algorithm under evaluation, matching the names used in §6.
#[derive(Debug, Clone)]
pub enum Algo {
    /// §4.1.1's traditional optimizer (marginal selectivities).
    Naive,
    /// `CorrSeq`: correlation-aware sequential plan; the paper uses
    /// `OptSeq` when the query is small and `GreedySeq` otherwise, which
    /// is exactly [`SeqAlgorithm::Auto`].
    CorrSeq(SeqAlgorithm),
    /// `Heuristic-k`: the greedy conditional planner with at most
    /// `splits` conditioning predicates, candidate cuts on an
    /// equal-width grid of `grid_r` points per attribute.
    Heuristic {
        /// Maximum number of conditioning splits (the `k`).
        splits: usize,
        /// Split points per attribute (§4.3); `0` = unrestricted.
        grid_r: usize,
        /// Base sequential algorithm for leaf plans.
        base: SeqAlgorithm,
    },
    /// The exhaustive planner of Fig. 5 on a `grid_r`-point grid with a
    /// subproblem budget.
    Exhaustive {
        /// Split points per attribute.
        grid_r: usize,
        /// Subproblem budget before greedy-leaf fallback.
        budget: usize,
    },
}

impl Algo {
    /// Display label, in the paper's vocabulary. Grid-restricted
    /// heuristics carry their grid so labels stay unique within a batch.
    pub fn label(&self) -> String {
        match self {
            Algo::Naive => "Naive".into(),
            Algo::CorrSeq(_) => "CorrSeq".into(),
            Algo::Heuristic { splits, grid_r: 0, .. } => format!("Heuristic-{splits}"),
            Algo::Heuristic { splits, grid_r, .. } => format!("Heuristic-{splits}(r={grid_r})"),
            Algo::Exhaustive { grid_r, .. } => format!("Exhaustive(r={grid_r})"),
        }
    }

    /// Builds the plan for `query` from `train`-fitted statistics.
    /// The second return is `Some(true)` when an exhaustive search
    /// completed within budget (the plan is provably optimal under its
    /// grid), `Some(false)` when it was budget-truncated, `None` for
    /// non-exhaustive algorithms.
    pub fn plan(
        &self,
        schema: &Schema,
        query: &Query,
        train: &Dataset,
    ) -> Result<(Plan, Option<bool>)> {
        let est = CountingEstimator::with_ranges(train, Ranges::root(schema));
        match self {
            Algo::Naive => Ok((SeqPlanner::naive().plan(schema, query, &est)?, None)),
            Algo::CorrSeq(algo) => Ok((SeqPlanner::new(*algo).plan(schema, query, &est)?, None)),
            Algo::Heuristic { splits, grid_r, base } => {
                let mut p = GreedyPlanner::new(*splits).with_base(*base);
                if *grid_r > 0 {
                    p = p.with_grid(SplitGrid::for_query(schema, query, *grid_r));
                }
                Ok((p.plan(schema, query, &est)?, None))
            }
            Algo::Exhaustive { grid_r, budget } => {
                let grid = SplitGrid::for_query(schema, query, *grid_r);
                let report = ExhaustivePlanner::with_grid(grid)
                    .max_subproblems(*budget)
                    .plan_with_report(schema, query, &est)?;
                Ok((report.plan, Some(!report.truncated)))
            }
        }
    }
}

/// Result of one (query, algorithm) cell.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Which query in the batch.
    pub query_idx: usize,
    /// Algorithm label.
    pub algo: String,
    /// Mean per-tuple cost on the (disjoint) test window.
    pub test_cost: f64,
    /// Mean per-tuple cost on the training window.
    pub train_cost: f64,
    /// Conditioning splits in the produced plan.
    pub splits: usize,
    /// Wire size `ζ(P)` in bytes.
    pub wire_size: usize,
    /// Whether the plan was correct on every train and test tuple.
    pub correct: bool,
    /// For exhaustive cells: whether the search completed within budget
    /// (plan provably optimal under its grid).
    pub exact: Option<bool>,
}

/// Runs every algorithm on every query, train→plan / test→measure, in
/// parallel over queries. Each worker plans with its own estimators and
/// returns its cells through its join handle; the only state the
/// workers share is the index of the next query. Cells come back sorted
/// by `(query, algo)`.
pub fn run_batch(
    schema: &Schema,
    queries: &[Query],
    train: &Dataset,
    test: &Dataset,
    algos: &[Algo],
) -> Vec<Cell> {
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get()).min(16);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let worker = || {
        let mut cells = Vec::new();
        loop {
            let qi = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            let Some(query) = queries.get(qi) else { return cells };
            for algo in algos {
                let (plan, exact) = algo
                    .plan(schema, query, train)
                    .unwrap_or_else(|e| panic!("{} failed on query {qi}: {e}", algo.label()));
                let tr = measure(&plan, query, schema, train);
                let te = measure(&plan, query, schema, test);
                cells.push(Cell {
                    query_idx: qi,
                    algo: algo.label(),
                    test_cost: te.mean_cost,
                    train_cost: tr.mean_cost,
                    splits: plan.split_count(),
                    wire_size: plan.wire_size(),
                    correct: tr.all_correct && te.all_correct,
                    exact,
                });
            }
        }
    };
    let mut out: Vec<Cell> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads).map(|_| s.spawn(worker)).collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    out.sort_by(|a, b| (a.query_idx, &a.algo).cmp(&(b.query_idx, &b.algo)));
    out
}

/// Mean test cost per algorithm label.
pub fn mean_by_algo(cells: &[Cell]) -> Vec<(String, f64)> {
    let mut labels: Vec<String> = Vec::new();
    for c in cells {
        if !labels.contains(&c.algo) {
            labels.push(c.algo.clone());
        }
    }
    labels
        .into_iter()
        .map(|l| {
            let (sum, n) = cells
                .iter()
                .filter(|c| c.algo == l)
                .fold((0.0, 0usize), |(s, n), c| (s + c.test_cost, n + 1));
            (l, sum / n.max(1) as f64)
        })
        .collect()
}

/// Per-query cost of `algo`, indexed by query.
pub fn costs_of(cells: &[Cell], algo: &str) -> Vec<f64> {
    let mut v: Vec<(usize, f64)> =
        cells.iter().filter(|c| c.algo == algo).map(|c| (c.query_idx, c.test_cost)).collect();
    v.sort_by_key(|(q, _)| *q);
    v.into_iter().map(|(_, c)| c).collect()
}

/// Prints a cumulative-frequency table of per-query gain ratios
/// (`baseline / subject`), the presentation of Figs. 8(c), 10 and 11:
/// the value at x is the fraction of queries whose gain is ≥ x.
pub fn print_gain_cdf(title: &str, baseline: &[f64], subject: &[f64]) {
    assert_eq!(baseline.len(), subject.len());
    let mut gains: Vec<f64> = baseline
        .iter()
        .zip(subject)
        .map(|(b, s)| if *s > 0.0 { b / s } else { f64::INFINITY })
        .collect();
    gains.sort_by_key(|&g| OrdF64(g));
    println!("  {title}: cumulative frequency of gain (fraction of queries with gain >= x)");
    println!("    {:>8} {:>10}", "gain x", "frac >= x");
    for x in [0.5, 0.8, 0.9, 1.0, 1.1, 1.25, 1.5, 2.0, 3.0, 4.0, 6.0] {
        let frac = gains.iter().filter(|&&g| g >= x).count() as f64 / gains.len() as f64;
        println!("    {x:>8.2} {frac:>10.3}");
    }
    let median = gains[gains.len() / 2];
    let max = gains.last().copied().unwrap_or(f64::NAN);
    println!("    median gain {median:.3}, max gain {max:.3}");
}

/// Prints an aligned `(label, value)` table.
pub fn print_table(title: &str, rows: &[(String, f64)]) {
    println!("{title}");
    for (label, v) in rows {
        println!("  {label:<22} {v:>12.3}");
    }
}

/// Asserts every cell was correct — every plan computed exactly `φ(x)`.
pub fn assert_all_correct(cells: &[Cell]) {
    for c in cells {
        assert!(c.correct, "{} produced an incorrect plan on query {}", c.algo, c.query_idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acqp_data::lab::{self, LabConfig};
    use acqp_data::workload::lab_queries;

    #[test]
    fn batch_runner_smoke() {
        let g = lab::generate(&LabConfig { motes: 6, epochs: 220, ..LabConfig::default() });
        let (train, test) = g.split(0.7);
        let queries = lab_queries(&g.schema, &train, 4, 3, 5).unwrap();
        let algos = vec![
            Algo::Naive,
            Algo::CorrSeq(SeqAlgorithm::Auto),
            Algo::Heuristic { splits: 3, grid_r: 8, base: SeqAlgorithm::Auto },
        ];
        let cells = run_batch(&g.schema, &queries, &train, &test, &algos);
        assert_eq!(cells.len(), 12);
        assert_all_correct(&cells);
        let means = mean_by_algo(&cells);
        assert_eq!(means.len(), 3);
        // The heuristic never loses to Naive on *training* data.
        for qi in 0..queries.len() {
            let naive =
                cells.iter().find(|c| c.query_idx == qi && c.algo == "Naive").unwrap().train_cost;
            let heur = cells
                .iter()
                .find(|c| c.query_idx == qi && c.algo == "Heuristic-3(r=8)")
                .unwrap()
                .train_cost;
            assert!(heur <= naive + 1e-6, "query {qi}: heuristic {heur} vs naive {naive}");
        }
    }

    #[test]
    fn bench_json_from_planner_counters() {
        use acqp_obs::{NoopSink, Recorder};
        use std::sync::Arc;

        let g = lab::generate(&LabConfig { motes: 6, epochs: 220, ..LabConfig::default() });
        let (train, _) = g.split(0.7);
        let queries = lab_queries(&g.schema, &train, 2, 3, 5).unwrap();
        let rec = Recorder::new(Arc::new(NoopSink));
        for q in &queries {
            let est = CountingEstimator::with_ranges(&train, Ranges::root(&g.schema));
            ExhaustivePlanner::with_grid(SplitGrid::for_query(&g.schema, q, 3))
                .with_recorder(rec.clone())
                .plan(&g.schema, q, &est)
                .unwrap();
        }
        let snap = rec.drain();
        let (hit, miss) = (snap.counter("planner.memo.hit"), snap.counter("planner.memo.miss"));
        assert!(snap.counter("planner.subproblems.opened") > 0);
        assert!(snap.counter("planner.split.evaluated") > 0);
        let rates = vec![("planner.memo.hit_rate".to_string(), hit as f64 / (hit + miss) as f64)];

        let dir = std::env::temp_dir().join(format!("acqp_bench_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cwd = std::env::current_dir().unwrap();
        std::env::set_current_dir(&dir).unwrap();
        let path = write_bench_json("unit_test", &rates).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::env::set_current_dir(cwd).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert!(text.starts_with('{') && text.trim_end().ends_with('}'));
        assert!(text.contains("\"planner.memo.hit_rate\":"));
    }

    #[test]
    fn costs_of_orders_by_query() {
        let cells = vec![
            Cell {
                query_idx: 1,
                algo: "A".into(),
                test_cost: 2.0,
                train_cost: 2.0,
                splits: 0,
                wire_size: 1,
                correct: true,
                exact: None,
            },
            Cell {
                query_idx: 0,
                algo: "A".into(),
                test_cost: 1.0,
                train_cost: 1.0,
                splits: 0,
                wire_size: 1,
                correct: true,
                exact: None,
            },
        ];
        assert_eq!(costs_of(&cells, "A"), vec![1.0, 2.0]);
    }
}
