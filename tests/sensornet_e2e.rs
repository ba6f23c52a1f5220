//! End-to-end sensor-network tests: basestation → wire → motes, with
//! energy accounting (Fig. 4's architecture).

// Energy assertions compare exact model-priced floats on purpose.
#![allow(clippy::float_cmp)]

use acqp::core::prelude::*;
use acqp::data::garden::{self, GardenAttrs, GardenConfig};
use acqp::obs::Recorder;
use acqp::sensornet::{
    run_simulation, sim::fleet_from_trace, Basestation, EnergyModel, PlannerChoice, SimOptions,
};

fn setup() -> (acqp::data::Generated, Query) {
    let cfg = GardenConfig { epochs: 1_200, ..GardenConfig::garden5() };
    let g = garden::generate(&cfg);
    let layout = GardenAttrs::new(5);
    let mut preds = Vec::new();
    for m in 0..5 {
        preds.push(Pred::in_range(layout.temp(m), 12, 40));
        preds.push(Pred::in_range(layout.humidity(m), 10, 50));
    }
    let q = Query::checked(preds, &g.schema).unwrap();
    (g, q)
}

#[test]
fn full_pipeline_is_exact_and_accounts_energy() {
    let (g, query) = setup();
    let (history, live) = g.split(0.5);
    let bs = Basestation::new(g.schema.clone(), &history);
    let model = EnergyModel::mica_like();

    for choice in [PlannerChoice::Naive, PlannerChoice::CorrSeq, PlannerChoice::Heuristic(6)] {
        let planned = bs.plan_query(&query, choice, 0.0).unwrap();
        // The wire must decode back to the same plan the planner built.
        assert_eq!(Plan::decode(&planned.wire).unwrap(), planned.plan);

        let mut motes = fleet_from_trace(&live, 4);
        let rep = run_simulation(
            &bs,
            &query,
            &planned,
            &mut motes,
            &model,
            live.len(),
            &Recorder::disabled(),
            &SimOptions::default(),
        )
        .unwrap()
        .fault
        .sim;
        assert!(rep.all_correct, "{choice:?} must stay exact on live data");
        assert_eq!(rep.tuples, 4 * live.len());
        // Every mote paid for receiving the plan.
        for l in &rep.per_mote {
            assert!(
                (l.radio_rx_uj - planned.wire.len() as f64 * model.radio_rx_uj_per_byte).abs()
                    < 1e-9
            );
        }
        // Sensing energy is bounded by acquiring every query attribute
        // for every tuple.
        let max_per_tuple: f64 = query.preds().iter().map(|p| g.schema.cost(p.attr())).sum();
        assert!(rep.sensing_uj_per_tuple <= max_per_tuple * model.uj_per_cost_unit + 1e-9);
    }
}

#[test]
fn plan_size_objective_prefers_small_plans_for_short_queries() {
    let (g, query) = setup();
    let (history, _) = g.split(0.5);
    let bs = Basestation::new(g.schema.clone(), &history);
    let candidates = [0usize, 2, 8, 24];
    let (k_free, planned_free) = bs.plan_query_sized(&query, 0.0, &candidates).unwrap();
    let (k_tight, planned_tight) = bs.plan_query_sized(&query, 50.0, &candidates).unwrap();
    assert!(k_tight <= k_free);
    assert!(planned_tight.wire.len() <= planned_free.wire.len());
    // The objective must actually be minimized at the chosen k.
    for &k in &candidates {
        let p = bs.plan_query(&query, PlannerChoice::Heuristic(k), 50.0).unwrap();
        assert!(planned_tight.objective <= p.objective + 1e-9);
    }
}

#[test]
fn board_powerup_reduces_to_zero_without_boards() {
    let (g, query) = setup();
    let (history, live) = g.split(0.5);
    let bs = Basestation::new(g.schema.clone(), &history);
    let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();

    let no_board = EnergyModel::mica_like();
    let mut motes = fleet_from_trace(&live.take(200), 2);
    let rep = run_simulation(
        &bs,
        &query,
        &planned,
        &mut motes,
        &no_board,
        200,
        &Recorder::disabled(),
        &SimOptions::default(),
    )
    .unwrap()
    .fault
    .sim;
    assert_eq!(rep.network.board_uj, 0.0);

    let layout = GardenAttrs::new(5);
    let with_board =
        EnergyModel::mica_like().with_board((0..5).map(|m| layout.temp(m)).collect(), 100.0);
    let mut motes = fleet_from_trace(&live.take(200), 2);
    let rep2 = run_simulation(
        &bs,
        &query,
        &planned,
        &mut motes,
        &with_board,
        200,
        &Recorder::disabled(),
        &SimOptions::default(),
    )
    .unwrap()
    .fault
    .sim;
    assert!(rep2.network.board_uj > 0.0);
    // Identical sensing either way — boards only add power-up energy.
    assert!((rep.network.sensing_uj - rep2.network.sensing_uj).abs() < 1e-9);
}
