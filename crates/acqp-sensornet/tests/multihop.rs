//! Integration tests for multihop simulation: topology shapes change
//! radio energy but never sensing energy or verdicts.

use acqp_core::prelude::*;
use acqp_obs::Recorder;
use acqp_sensornet::sim::fleet_from_trace;
use acqp_sensornet::{
    run_simulation, Basestation, EnergyModel, FaultReport, PlannedQuery, PlannerChoice, SimOptions,
    Topology,
};

fn setup() -> (Schema, Dataset, Query) {
    let schema = Schema::new(vec![
        Attribute::new("a", 4, 100.0),
        Attribute::new("b", 4, 100.0),
        Attribute::new("t", 4, 1.0),
    ])
    .unwrap();
    let rows: Vec<Vec<u16>> = (0..400u16).map(|i| vec![(i / 7) % 4, (i / 3) % 4, i % 4]).collect();
    let data = Dataset::from_rows(&schema, rows).unwrap();
    let query = Query::new(vec![Pred::in_range(0, 0, 1), Pred::in_range(1, 2, 3)]).unwrap();
    (schema, data, query)
}

/// A lossless run of `planned` on `motes` motes over `live`,
/// multihop when `topology` is given.
fn run(
    bs: &Basestation<'_>,
    query: &Query,
    planned: &PlannedQuery,
    live: &Dataset,
    motes: u16,
    topology: Option<Topology>,
) -> FaultReport {
    let mut fleet = fleet_from_trace(live, motes);
    let model = EnergyModel::mica_like();
    let opts = SimOptions { topology, ..SimOptions::default() };
    let rec = Recorder::disabled();
    run_simulation(bs, query, planned, &mut fleet, &model, live.len(), &rec, &opts).unwrap().fault
}

#[test]
fn star_topology_matches_single_hop_simulation() {
    let (schema, data, query) = setup();
    let (history, live) = data.split_at(0.5);
    let bs = Basestation::new(schema.clone(), &history);
    let planned = bs.plan_query(&query, PlannerChoice::Heuristic(3), 0.0).unwrap();

    let flat = run(&bs, &query, &planned, &live, 4, None);
    let multi = run(&bs, &query, &planned, &live, 4, Some(Topology::star(4)));
    let (flat_rep, multi_rep, bs_tx) = (flat.sim, multi.sim, multi.bs_tx_uj);
    assert!(flat_rep.all_correct && multi_rep.all_correct);
    assert_eq!(flat_rep.results, multi_rep.results);
    // The tree radio model charges each mote the same additions, in the
    // same order, as the single-hop charges.
    assert_eq!(flat_rep.per_mote, multi_rep.per_mote, "star ledgers must match to the bit");
    // Sensing identical; radio identical at depth 1 (no relays, no
    // interior forwards).
    assert!((flat_rep.network.sensing_uj - multi_rep.network.sensing_uj).abs() < 1e-9);
    assert!(
        (flat_rep.network.radio_rx_uj - multi_rep.network.radio_rx_uj).abs() < 1e-9,
        "star rx must match single-hop"
    );
    assert!(
        (flat_rep.network.radio_tx_uj - multi_rep.network.radio_tx_uj).abs() < 1e-9,
        "star tx must match single-hop"
    );
    assert!(bs_tx > 0.0);
    // The star broadcasts the plan once; single-hop unicasts it to
    // every mote.
    assert!((flat.bs_tx_uj - 4.0 * bs_tx).abs() < 1e-9);
}

#[test]
fn deeper_topologies_cost_more_radio_never_more_sensing() {
    let (schema, data, query) = setup();
    let (history, live) = data.split_at(0.5);
    let bs = Basestation::new(schema.clone(), &history);
    let planned = bs.plan_query(&query, PlannerChoice::Heuristic(3), 0.0).unwrap();

    let run = |topo: Topology| {
        let rep = run(&bs, &query, &planned, &live, 6, Some(topo)).sim;
        assert!(rep.all_correct);
        rep
    };
    let star = run(Topology::star(6));
    let tree = run(Topology::balanced(6, 2));
    let line = run(Topology::line(6));
    assert!((star.network.sensing_uj - line.network.sensing_uj).abs() < 1e-9);
    let radio = |r: &acqp_sensornet::SimReport| r.network.radio_rx_uj + r.network.radio_tx_uj;
    assert!(radio(&star) < radio(&tree));
    assert!(radio(&tree) < radio(&line), "line tops the relay bill");
}

#[test]
fn relay_burden_lands_on_ancestors() {
    let (schema, data, query) = setup();
    let (history, live) = data.split_at(0.5);
    let bs = Basestation::new(schema.clone(), &history);
    let planned = bs.plan_query(&query, PlannerChoice::CorrSeq, 0.0).unwrap();
    let rep = run(&bs, &query, &planned, &live, 4, Some(Topology::line(4))).sim;
    // Mote 0 relays for everyone: strictly more radio than the leaf.
    let tx0 = rep.per_mote[0].radio_tx_uj;
    let tx3 = rep.per_mote[3].radio_tx_uj;
    assert!(tx0 > tx3, "root-adjacent mote must carry the relay burden: {tx0} vs {tx3}");
}
