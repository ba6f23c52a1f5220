//! Full sensor-network pipeline on the Garden deployment (§2.5, Fig. 4):
//! the basestation learns from history, sizes the plan under the §2.4
//! communication-aware objective, disseminates the byte-code, and the
//! motes execute it epoch by epoch with full energy accounting.
//!
//! ```sh
//! cargo run --release --example garden_monitoring
//! ```

use acqp::core::prelude::*;
use acqp::data::garden::{self, GardenAttrs, GardenConfig};
use acqp::obs::Recorder;
use acqp::sensornet::{
    run_simulation, sim::fleet_from_trace, Basestation, EnergyModel, PlannerChoice, SimOptions,
};

fn main() -> Result<()> {
    let cfg = GardenConfig::garden5();
    let generated = garden::generate(&cfg);
    let (history, live) = generated.split(0.5);
    let schema = generated.schema.clone();
    let layout = GardenAttrs::new(cfg.motes);

    // "Report epochs where the whole forest sits in the mild band" —
    // moderate temperature and humidity at *every* mote. Which mote
    // leaves the band first depends on the time of day (sun-exposed
    // motes overshoot at noon, cold-air hollows undershoot at night), so
    // the best probing order is genuinely conditional.
    let temp_d = generated.discretizers[layout.temp(0)].as_ref().unwrap();
    let hum_d = generated.discretizers[layout.humidity(0)].as_ref().unwrap();
    let mut preds = Vec::new();
    for m in 0..cfg.motes {
        preds.push(Pred::in_range(layout.temp(m), temp_d.quantize(10.5), temp_d.quantize(17.5)));
        preds.push(Pred::in_range(layout.humidity(m), hum_d.quantize(50.0), hum_d.quantize(78.0)));
    }
    let query = Query::checked(preds, &schema)?;

    let bs = Basestation::new(schema.clone(), &history);
    let model = EnergyModel::mica_like().with_board(
        (0..cfg.motes).flat_map(|m| [layout.temp(m), layout.humidity(m)]).collect(),
        250.0,
    );

    // §2.4: choose the plan size by the α-penalized objective.
    let fleet_size = 4u16;
    let alpha = Basestation::alpha_for(&model, fleet_size as usize, live.len());
    let (k, planned) = bs.plan_query_sized(&query, alpha, &[0, 1, 2, 4, 8, 16])?;
    println!("alpha = {alpha:.5} cost-units/byte -> chose Heuristic-{k}");
    println!(
        "plan: {} splits, {} bytes on air, expected cost {:.1}/tuple\n",
        planned.plan.split_count(),
        planned.wire.len(),
        planned.expected_cost
    );

    // Run the fleet on the live window and compare against Naive.
    for (name, choice) in [
        ("Naive", PlannerChoice::Naive),
        ("CorrSeq", PlannerChoice::CorrSeq),
        (&format!("Heuristic-{k}"), PlannerChoice::Heuristic(k)),
    ] {
        let p = bs.plan_query(&query, choice, alpha)?;
        let mut motes = fleet_from_trace(&live, fleet_size);
        let report = run_simulation(
            &bs,
            &query,
            &p,
            &mut motes,
            &model,
            live.len(),
            &Recorder::disabled(),
            &SimOptions::default(),
        )?
        .fault
        .sim;
        assert!(report.all_correct);
        println!(
            "{name:<14} sensing {:>10.0} uJ  board {:>8.0} uJ  radio {:>7.0} uJ  \
             total {:>10.0} uJ  ({} results)",
            report.network.sensing_uj,
            report.network.board_uj,
            report.network.radio_tx_uj + report.network.radio_rx_uj,
            report.network.total_uj(),
            report.results,
        );
    }
    Ok(())
}
