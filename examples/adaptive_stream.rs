//! §7 "Queries over data streams": the data distribution drifts, the
//! basestation's drift monitor notices the running plan's selectivity
//! estimates going stale, re-plans over its sliding window of uploaded
//! samples, and re-disseminates the new plan only when it is cheaper
//! under the drifted window — hysteresis, so a noisy window cannot
//! thrash the fleet.
//!
//! The trace switches between two regimes halfway through (think
//! summer/winter): which expensive sensor usually passes *reverses*,
//! and with it which one the cheap conditioning attribute predicts, so
//! the frozen conditional plan probes the wrong sensor first and the
//! adaptive run wins its advantage back. Each re-planning decision is
//! printed as a `ReplanEvent`.
//!
//! ```sh
//! cargo run --release --example adaptive_stream
//! ```

use acqp::core::DriftConfig;
use acqp::prelude::*;
use acqp::sensornet::sim::fleet_from_trace;
use acqp::sensornet::{run_simulation, AdaptiveConfig, FaultReport, SimOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Regime-dependent tuple generator: in regime 0, `a` passes on 90% of
/// tuples and `b` only where the cheap attribute `t` flags it; in
/// regime 1 the roles flip.
fn tuple(rng: &mut StdRng, regime: usize) -> Vec<u16> {
    let t = u16::from(rng.gen_bool(0.1));
    let rare = if rng.gen_bool(0.05) { 1 - t } else { t };
    let common = u16::from(rng.gen_bool(0.9));
    let (a, b) = if regime == 0 { (common, rare) } else { (rare, common) };
    vec![a, b, t]
}

fn main() -> Result<()> {
    let schema = Schema::new(vec![
        Attribute::new("a", 2, 100.0),
        Attribute::new("b", 2, 100.0),
        Attribute::new("t", 2, 1.0),
    ])?;
    let query = Query::checked(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)], &schema)?;

    const HISTORY: usize = 600;
    const EPOCHS: usize = 3_000;
    const MOTES: u16 = 2;
    let mut rng = StdRng::seed_from_u64(42);
    let history = Dataset::from_rows(&schema, (0..HISTORY).map(|_| tuple(&mut rng, 0)).collect())?;
    let live = Dataset::from_rows(
        &schema,
        (0..EPOCHS).map(|e| tuple(&mut rng, usize::from(e >= EPOCHS / 2))).collect(),
    )?;

    // The basestation plans from regime-0 history.
    let bs = Basestation::new(schema.clone(), &history);
    let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0)?;
    let model = EnergyModel::mica_like();
    let run = |adaptive: Option<AdaptiveConfig>| -> Result<FaultReport> {
        let mut motes = fleet_from_trace(&live, MOTES);
        let opts = SimOptions { adaptive, ..SimOptions::default() };
        let rec = Recorder::disabled();
        Ok(run_simulation(&bs, &query, &planned, &mut motes, &model, EPOCHS, &rec, &opts)?.fault)
    };

    let frozen = run(None)?;
    let adaptive = run(Some(AdaptiveConfig {
        drift: DriftConfig { threshold: 0.2, min_samples: 32 },
        check_every: 16,
        sample_every: 8,
        window: 256,
        min_window: 64,
        ..AdaptiveConfig::default()
    }))?;
    assert!(frozen.sim.all_correct && adaptive.sim.all_correct);

    println!("regime flips at epoch {}; {MOTES} motes x {EPOCHS} epochs\n", EPOCHS / 2);
    println!(
        "{:>7} {:>11} {:>11} {:>9} {:>8}",
        "epoch", "divergence", "stale cost", "new cost", "adopted"
    );
    for r in &adaptive.replans {
        println!(
            "{:>7} {:>11.3} {:>11.1} {:>9.1} {:>8}{}",
            r.epoch,
            r.divergence,
            r.stale_cost,
            r.new_cost,
            r.adopted,
            if r.fell_back { " (greedy fallback)" } else { "" }
        );
    }
    let adopted = adaptive.replans.iter().filter(|r| r.adopted).count();
    let (f, a) = (frozen.sim.network.total_uj(), adaptive.sim.network.total_uj());
    println!("\nreplans: {} triggered, {adopted} adopted", adaptive.replans.len());
    println!(
        "network energy: frozen {f:.0} uJ, adaptive {a:.0} uJ (adaptive saves {:.1}%, \
         statistics samples included)",
        100.0 * (f - a) / f
    );
    assert!(adopted > 0, "the regime flip must make a cheaper plan win");
    assert!(a < f, "re-planning must pay for its statistics samples");
    Ok(())
}
