//! Flight-recorder determinism and transparency, end to end.
//!
//! Three properties from DESIGN.md §13:
//!  1. Fixed inputs ⇒ bitwise-identical event logs across repeated runs
//!     (the exporters are compared byte for byte).
//!  2. A disabled flight recorder is bitwise-transparent: simulation
//!     reports and energy ledgers match a run with no recorder at all.
//!  3. Lossy runs with a fixed fault seed replay to the same trace.

use acqp_core::prelude::*;
use acqp_obs::{FlightRecorder, Recorder};
use acqp_sensornet::sim::fleet_from_trace;
use acqp_sensornet::{
    run_simulation, Basestation, EnergyModel, FaultModel, PlannerChoice, SimOptions,
};
use proptest::prelude::*;

/// A small deterministic workload parameterised by row-formula divisors
/// (a stand-in for a dataset seed — no RNG, so proptest shrinking stays
/// meaningful).
fn setup(div_a: u16, div_b: u16, rows: usize) -> (Schema, Dataset, Query) {
    let schema = Schema::new(vec![
        Attribute::new("a", 4, 100.0),
        Attribute::new("b", 4, 100.0),
        Attribute::new("t", 4, 1.0),
    ])
    .unwrap();
    let rows: Vec<Vec<u16>> =
        (0..rows as u16).map(|i| vec![(i / div_a) % 4, (i / div_b) % 4, i % 4]).collect();
    let data = Dataset::from_rows(&schema, rows).unwrap();
    let query = Query::new(vec![Pred::in_range(0, 0, 1), Pred::in_range(1, 2, 3)]).unwrap();
    (schema, data, query)
}

/// Runs the lossless simulation with a fresh flight recorder and
/// returns all three export formats plus the report.
fn fly(
    schema: &Schema,
    query: &Query,
    live: &Dataset,
    motes: u16,
) -> (String, String, String, acqp_sensornet::SimReport) {
    let bs = Basestation::new(schema.clone(), live);
    let planned = bs.plan_query(query, PlannerChoice::Heuristic(3), 0.0).unwrap();
    let rec = Recorder::disabled().with_flight(FlightRecorder::new(1 << 14));
    let mut fleet = fleet_from_trace(live, motes);
    let rep = run_simulation(
        &bs,
        query,
        &planned,
        &mut fleet,
        &EnergyModel::mica_like(),
        live.len(),
        &rec,
        &SimOptions::default(),
    )
    .unwrap()
    .fault
    .sim;
    let flight = rec.flight();
    (flight.to_chrome_json(), flight.to_epoch_jsonl(), flight.to_timeline(), rep)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Property 1: fixed inputs ⇒ byte-identical exports, run to run.
    #[test]
    fn fixed_inputs_replay_to_identical_traces(
        div_a in 2u16..9,
        div_b in 2u16..9,
        motes in 1u16..4,
        rows in 40usize..120,
    ) {
        let (schema, data, query) = setup(div_a, div_b, rows);
        let (chrome1, jsonl1, text1, rep1) = fly(&schema, &query, &data, motes);
        let (chrome2, jsonl2, text2, rep2) = fly(&schema, &query, &data, motes);
        prop_assert_eq!(&chrome1, &chrome2, "same-input traces diverged");
        prop_assert_eq!(&jsonl1, &jsonl2);
        prop_assert_eq!(&text1, &text2);
        prop_assert_eq!(rep1.results, rep2.results);
        prop_assert_eq!(rep1.network.total_uj().to_bits(), rep2.network.total_uj().to_bits());
    }

    /// Property 2: a disabled flight recorder never perturbs the run —
    /// reports are bitwise-equal to the recorder-free entry points.
    #[test]
    fn disabled_recorder_is_bitwise_transparent(
        div_a in 2u16..9,
        motes in 1u16..4,
        rows in 40usize..120,
    ) {
        let (schema, data, query) = setup(div_a, 3, rows);
        let bs = Basestation::new(schema.clone(), &data);
        let planned = bs.plan_query(&query, PlannerChoice::Heuristic(3), 0.0).unwrap();
        let model = EnergyModel::mica_like();

        let mut bare_fleet = fleet_from_trace(&data, motes);
        let opts = SimOptions::default();
        let bare = run_simulation(
            &bs, &query, &planned, &mut bare_fleet, &model, data.len(), &Recorder::disabled(),
            &opts,
        )
        .unwrap()
        .fault
        .sim;
        let rec = Recorder::disabled().with_flight(FlightRecorder::disabled());
        let mut fleet = fleet_from_trace(&data, motes);
        let flown =
            run_simulation(&bs, &query, &planned, &mut fleet, &model, data.len(), &rec, &opts)
                .unwrap()
                .fault
                .sim;
        prop_assert_eq!(rec.flight().emitted(), 0, "disabled ring must swallow emits");
        prop_assert_eq!(bare.tuples, flown.tuples);
        prop_assert_eq!(bare.results, flown.results);
        prop_assert_eq!(bare.network.total_uj().to_bits(), flown.network.total_uj().to_bits());
        for (a, b) in bare_fleet.iter().zip(&fleet) {
            prop_assert_eq!(a.ledger().total_uj().to_bits(), b.ledger().total_uj().to_bits());
        }
    }

    /// Property 3: a fixed fault seed replays the lossy engine — retry
    /// events and all — to the same byte-for-byte trace.
    #[test]
    fn lossy_runs_replay_under_a_fixed_fault_seed(
        seed in 0u64..1000,
        loss_pct in 5u32..40,
        motes in 1u16..4,
    ) {
        let loss = loss_pct as f64 / 100.0;
        let (schema, data, query) = setup(5, 3, 90);
        let bs = Basestation::new(schema.clone(), &data);
        let planned = bs.plan_query(&query, PlannerChoice::Heuristic(3), 0.0).unwrap();
        let model = EnergyModel::mica_like();
        let opts = SimOptions { faults: FaultModel::lossy(seed, loss), ..SimOptions::default() };
        let mut traces = Vec::new();
        for _ in 0..2 {
            let rec = Recorder::disabled().with_flight(FlightRecorder::new(1 << 14));
            let mut fleet = fleet_from_trace(&data, motes);
            let rep = run_simulation(
                &bs, &query, &planned, &mut fleet, &model, data.len(), &rec, &opts,
            )
            .unwrap()
            .fault;
            prop_assert!(rep.sim.all_correct);
            traces.push(rec.flight().to_chrome_json());
        }
        prop_assert_eq!(&traces[0], &traces[1], "same fault seed must replay identically");
    }
}

/// Ring overflow on a real run is counted and surfaced, never silent.
#[test]
fn overflow_is_reported_in_exports() {
    let (schema, data, query) = setup(5, 3, 120);
    let bs = Basestation::new(schema.clone(), &data);
    let planned = bs.plan_query(&query, PlannerChoice::Heuristic(3), 0.0).unwrap();
    let rec = Recorder::disabled().with_flight(FlightRecorder::new(8));
    let mut fleet = fleet_from_trace(&data, 2);
    run_simulation(
        &bs,
        &query,
        &planned,
        &mut fleet,
        &EnergyModel::mica_like(),
        data.len(),
        &rec,
        &SimOptions::default(),
    )
    .unwrap();
    let flight = rec.flight();
    assert!(flight.dropped() > 0, "a cap of 8 must overflow on this run");
    assert_eq!(flight.len(), 8);
    assert!(flight.to_chrome_json().contains("trace.dropped"));
    assert!(flight.to_timeline().contains("trace.dropped"));
}
