//! §2.4 plan-size/communication trade-off: sweeping the scaling factor
//! `α = (cost to transmit a byte) / (tuples processed in the query
//! lifetime)` and letting the basestation pick the plan size `k` that
//! minimizes `C(P) + α·ζ(P)`, then validating the choice with the full
//! sensor-network simulation.
//!
//! Expected shape: short-lived queries (large α) get leaf plans (the
//! plan is not worth shipping); long-lived queries (α → 0) get rich
//! conditional plans.

use acqp_core::prelude::*;
use acqp_data::garden::{self, GardenAttrs, GardenConfig};
use acqp_obs::Recorder;
use acqp_sensornet::{run_simulation, sim::fleet_from_trace, Basestation, EnergyModel, SimOptions};

fn main() {
    let t0 = std::time::Instant::now();
    let cfg = GardenConfig { epochs: 6_000, ..GardenConfig::garden5() };
    let g = garden::generate(&cfg);
    let (history, live) = g.split(0.5);
    let schema = g.schema.clone();
    let layout = GardenAttrs::new(cfg.motes);

    let temp_d = g.discretizers[layout.temp(0)].as_ref().unwrap();
    let hum_d = g.discretizers[layout.humidity(0)].as_ref().unwrap();
    let mut preds = Vec::new();
    for m in 0..cfg.motes {
        preds.push(Pred::in_range(layout.temp(m), temp_d.quantize(10.5), temp_d.quantize(17.5)));
        preds.push(Pred::in_range(layout.humidity(m), hum_d.quantize(50.0), hum_d.quantize(78.0)));
    }
    let query = Query::checked(preds, &schema).unwrap();

    let bs = Basestation::new(schema.clone(), &history);
    let model = EnergyModel::mica_like();
    let candidates = [0usize, 1, 2, 4, 8, 16, 32];

    println!("=== §2.4 ablation: alpha vs chosen plan size ===\n");
    println!(
        "{:>10} {:>8} {:>8} {:>10} {:>14} {:>14}",
        "alpha", "k", "bytes", "splits", "objective", "sim total uJ"
    );
    for alpha in [0.0, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0] {
        let (k, planned) = bs.plan_query_sized(&query, alpha, &candidates).unwrap();
        // Validate with a short simulation window.
        let epochs = 500.min(live.len());
        let mut motes = fleet_from_trace(&live.take(epochs), 3);
        let rep = run_simulation(
            &bs,
            &query,
            &planned,
            &mut motes,
            &model,
            epochs,
            &Recorder::disabled(),
            &SimOptions::default(),
        )
        .unwrap()
        .fault
        .sim;
        assert!(rep.all_correct);
        println!(
            "{alpha:>10.2} {k:>8} {:>8} {:>10} {:>14.2} {:>14.0}",
            planned.wire.len(),
            planned.plan.split_count(),
            planned.objective,
            rep.network.total_uj()
        );
    }
    println!(
        "\nalpha for this deployment per §2.4 (3 motes, {} epochs): {:.5}",
        live.len(),
        Basestation::alpha_for(&model, 3, live.len())
    );
    println!("elapsed: {:.1?}", t0.elapsed());
}
