//! Integration tests for the §7 extensions working together across
//! crates: existential queries over generated data, board-aware costs
//! through the sensornet energy model, and the Chow–Liu estimator fed
//! from a streaming window.

use acqp::core::prelude::*;
use acqp::data::garden::{self, GardenAttrs, GardenConfig};
use acqp::data::lab::{self, attrs as lab_attrs, LabConfig};
use acqp::stream::SlidingWindow;

/// Existential query over the garden twin: "is any mote freezing?" —
/// plans stay exact and the conditional planner at least matches the
/// fixed branch order on training data.
#[test]
fn existential_over_garden() {
    let g = garden::generate(&GardenConfig { epochs: 1_200, ..GardenConfig::garden5() });
    let (train, test) = g.data.split_at(0.5);
    let layout = GardenAttrs::new(5);
    let cold = g.discretizers[layout.temp(0)].as_ref().unwrap().quantize(6.0);
    let q = ExistsQuery::checked(
        (0..5)
            .map(|m| Query::new(vec![Pred::in_range(layout.temp(m), 0, cold)]).unwrap())
            .collect(),
        &g.schema,
    )
    .unwrap();

    let seq = ExistsPlanner::new(0).plan(&g.schema, &q, &train).unwrap();
    let cond = ExistsPlanner::new(6).plan(&g.schema, &q, &train).unwrap();
    for plan in [&seq, &cond] {
        assert!(measure_exists(plan, &q, &g.schema, &test).all_correct);
    }
    let rs = measure_exists(&seq, &q, &g.schema, &train).mean_cost;
    let rc = measure_exists(&cond, &q, &g.schema, &train).mean_cost;
    assert!(rc <= rs + 1e-6, "conditional {rc} must not lose to sequential {rs} on train");
}

/// Window snapshots feed the Chow–Liu estimator: the whole streaming +
/// graphical-model stack composes.
#[test]
fn window_snapshot_feeds_gm_estimator() {
    let g = lab::generate(&LabConfig { motes: 6, epochs: 300, ..LabConfig::default() });
    let mut w = SlidingWindow::new(&g.schema, 600);
    for row in 0..g.data.len().min(900) {
        w.push(g.data.row(row));
    }
    let snap = w.snapshot(&g.schema).unwrap();
    assert_eq!(snap.len(), 600);
    let tree = acqp::gm::ChowLiuTree::fit(&g.schema, &snap, 0.5);
    let est = acqp::gm::GmEstimator::new(&tree, Ranges::root(&g.schema), 1_000, 5);
    let q = Query::checked(
        vec![Pred::in_range(lab_attrs::TEMP, 0, 30), Pred::in_range(lab_attrs::HUMIDITY, 0, 40)],
        &g.schema,
    )
    .unwrap();
    let plan = GreedyPlanner::new(4)
        .with_grid(SplitGrid::for_query(&g.schema, &q, 6))
        .plan(&g.schema, &q, &est)
        .unwrap();
    assert!(measure(&plan, &q, &g.schema, &g.data).all_correct);
}

/// Board-aware planning composes with the sensornet energy model: the
/// planner's board clustering shows up as fewer board power-ups in the
/// mote-level ledger.
#[test]
fn board_costs_compose_with_sensornet_energy() {
    use acqp::obs::Recorder;
    use acqp::sensornet::{
        run_simulation, sim::fleet_from_trace, Basestation, EnergyModel, PlannerChoice, SimOptions,
    };
    let g = garden::generate(&GardenConfig { epochs: 800, ..GardenConfig::garden5() });
    let (history, live) = g.data.split_at(0.5);
    let layout = GardenAttrs::new(5);
    let q = Query::checked(
        vec![Pred::in_range(layout.temp(0), 10, 40), Pred::in_range(layout.humidity(0), 10, 50)],
        &g.schema,
    )
    .unwrap();
    let bs = Basestation::new(g.schema.clone(), &history);
    let planned = bs.plan_query(&q, PlannerChoice::CorrSeq, 0.0).unwrap();
    // Same physical board for this mote's two sensors.
    let model =
        EnergyModel::mica_like().with_board(vec![layout.temp(0), layout.humidity(0)], 200.0);
    let mut motes = fleet_from_trace(&live, 2);
    let rep = run_simulation(
        &bs,
        &q,
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
    assert!(rep.all_correct);
    // The board powers up at most once per tuple even when both sensors
    // fire.
    assert!(rep.network.board_uj <= 200.0 * rep.tuples as f64 + 1e-9);
    assert!(rep.network.board_uj > 0.0);
}
