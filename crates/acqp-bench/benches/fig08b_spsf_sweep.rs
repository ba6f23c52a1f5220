//! Figure 8(b): the impact of split-point restriction (SPSF, §4.3) on
//! the exhaustive planner, versus `Heuristic-5` with a large SPSF.
//!
//! The paper's message: *"Exhaustive with smaller SPSF's performs
//! substantially worse than Heuristic with large SPSF's"* — restricting
//! split points too much obscures correlations, and the cheap heuristic
//! with full freedom wins. We sweep the exhaustive grid from 1 to 3
//! points per attribute (beyond that its search saturates its
//! subproblem budget; budget-capped configurations are marked) and
//! compare against `Heuristic-5` on a 12-point grid.

use acqp_bench::{assert_all_correct, costs_of, run_batch, Algo};
use acqp_core::{SeqAlgorithm, SplitGrid};
use acqp_data::lab::{self, LabConfig};
use acqp_data::workload::lab_queries;

fn main() {
    let t0 = std::time::Instant::now();
    let g = lab::generate(&LabConfig::default());
    let (train_full, test) = g.split(0.6);
    let train = train_full.thin(4);
    let n_queries: usize =
        std::env::var("ACQP_QUERIES").ok().and_then(|s| s.parse().ok()).unwrap_or(20);
    let queries = lab_queries(&g.schema, &train, n_queries, 3, 0x8b).expect("lab workload");

    let heuristic = Algo::Heuristic { splits: 5, grid_r: 12, base: SeqAlgorithm::Optimal };
    let mut algos = vec![heuristic.clone()];
    for r in [1usize, 2, 3] {
        algos.push(Algo::Exhaustive { grid_r: r, budget: 700_000 });
    }

    println!("=== Figure 8(b): Exhaustive under shrinking SPSF vs Heuristic-5 ===");
    println!("train rows: {}, queries: {n_queries}", train.len());
    let cells = run_batch(&g.schema, &queries, &train, &test, &algos);
    assert_all_correct(&cells);

    let heur_costs = costs_of(&cells, &heuristic.label());
    let heur_mean = heur_costs.iter().sum::<f64>() / heur_costs.len() as f64;
    println!(
        "\n{:<20} {:>10} {:>12} {:>14} {:>12} {:>8}",
        "algorithm", "log10SPSF", "mean cost", "mean/Heur-5", "worst/Heur-5", "exact"
    );
    println!(
        "{:<20} {:>10.1} {:>12.2} {:>14.3} {:>12} {:>8}",
        heuristic.label(),
        SplitGrid::equal_width(&g.schema, 12).log10_spsf(),
        heur_mean,
        1.0,
        "-",
        "-"
    );
    for algo in &algos[1..] {
        let label = algo.label();
        let costs = costs_of(&cells, &label);
        let mean = costs.iter().sum::<f64>() / costs.len() as f64;
        let worst = costs
            .iter()
            .zip(&heur_costs)
            .map(|(c, h)| if *h > 0.0 { c / h } else { 1.0 })
            .fold(0.0f64, f64::max);
        let exact = cells.iter().filter(|c| c.algo == label && c.exact == Some(true)).count();
        let r = match algo {
            Algo::Exhaustive { grid_r, .. } => *grid_r,
            _ => unreachable!(),
        };
        println!(
            "{label:<20} {:>10.1} {mean:>12.2} {:>14.3} {worst:>12.3} {exact:>5}/{}",
            SplitGrid::equal_width(&g.schema, r).log10_spsf(),
            mean / heur_mean,
            queries.len()
        );
    }
    println!(
        "\npaper: constraining split points too much \"obscure[s] interesting correlations \
         in the data\"; the heuristic with a large SPSF dominates."
    );
    println!("elapsed: {:.1?}", t0.elapsed());
}
