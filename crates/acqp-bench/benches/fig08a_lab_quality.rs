//! Figure 8(a): plan quality on the Lab dataset.
//!
//! 95 random three-predicate queries (predicate width 2σ, ~50%
//! selectivity) over the Lab data. The paper's claims, checked here:
//!
//! 1. every correlation-aware algorithm beats `Naive`;
//! 2. `Heuristic-10` tracks `Exhaustive` closely in both average and
//!    worst case *on a common split grid*.
//!
//! The exhaustive planner is run on a small grid (r = 2 candidate cuts
//! per attribute plus predicate endpoints) where its branch-and-bound
//! search completes within budget — the run reports how many queries
//! were solved to proven optimality. (The paper likewise could only run
//! `Exhaustive` on heavily restricted SPSFs; see Fig. 8(b).) The
//! heuristics are additionally run on a fine grid, which — per
//! Fig. 8(b)'s message — beats coarse-grid exhaustive.

use acqp_bench::{assert_all_correct, costs_of, mean_by_algo, run_batch, Algo};
use acqp_core::SeqAlgorithm;
use acqp_data::lab::{self, LabConfig};
use acqp_data::workload::lab_queries;

fn main() {
    let t0 = std::time::Instant::now();
    let g = lab::generate(&LabConfig::default());
    let (train_full, test) = g.split(0.6);
    // Plan on a thinned training window (planners are linear in |D|).
    let train = train_full.thin(3);
    let n_queries: usize =
        std::env::var("ACQP_QUERIES").ok().and_then(|s| s.parse().ok()).unwrap_or(95);
    let queries = lab_queries(&g.schema, &train, n_queries, 3, 0xf18a).expect("lab workload");

    let algos = vec![
        Algo::Naive,
        Algo::CorrSeq(SeqAlgorithm::Optimal),
        Algo::Heuristic { splits: 0, grid_r: 2, base: SeqAlgorithm::Optimal },
        Algo::Heuristic { splits: 5, grid_r: 2, base: SeqAlgorithm::Optimal },
        Algo::Heuristic { splits: 10, grid_r: 2, base: SeqAlgorithm::Optimal },
        Algo::Exhaustive { grid_r: 2, budget: 1_500_000 },
        Algo::Heuristic { splits: 10, grid_r: 12, base: SeqAlgorithm::Optimal },
    ];

    println!("=== Figure 8(a): Lab dataset, {n_queries} three-predicate queries ===");
    println!(
        "train rows: {}, test rows: {}, attrs: {} (exhaustive at grid r=2; heuristics at r=2 and r=12)",
        train.len(),
        test.len(),
        g.schema.len()
    );
    let cells = run_batch(&g.schema, &queries, &train, &test, &algos);
    assert_all_correct(&cells);

    let exact = cells.iter().filter(|c| c.exact == Some(true)).count();
    let total_exh = cells.iter().filter(|c| c.exact.is_some()).count();
    println!("exhaustive solved to proven optimality: {exact}/{total_exh} queries\n");

    let means = mean_by_algo(&cells);
    let exh_label = "Exhaustive(r=2)";
    let exh_costs = costs_of(&cells, exh_label);
    let exh_mean = means.iter().find(|(l, _)| l == exh_label).map(|(_, c)| *c).unwrap();

    println!(
        "{:<22} {:>12} {:>16} {:>12}",
        "algorithm", "mean cost", "mean/Exhaustive", "worst/Exh"
    );
    for algo in &algos {
        let label = algo.label();
        let costs = costs_of(&cells, &label);
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        let worst = costs
            .iter()
            .zip(&exh_costs)
            .map(|(c, e)| if *e > 0.0 { c / e } else { 1.0 })
            .fold(0.0f64, f64::max);
        println!("{label:<22} {mean:>12.2} {:>16.3} {worst:>12.3}", mean / exh_mean);
    }
    println!("\nelapsed: {:.1?}", t0.elapsed());
}
