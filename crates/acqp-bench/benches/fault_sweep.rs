//! Fault sweep: a lossy fleet running a *stale* plan against the same
//! fleet with drift-triggered re-planning, across packet-loss rates.
//!
//! The scenario is the marginal-shift regime from `DESIGN.md` §9: the
//! training window has pred-`a` passing 90% of tuples and pred-`b` 10%
//! (so the planner fronts `b` for cheap rejections), while the live
//! trace reverses the two marginals. The stale plan then acquires both
//! expensive sensors almost every epoch; the drift monitor sees the
//! per-predicate selectivity error and re-plans mid-flight.
//!
//! Note the shift must move the *marginals*: a pure correlation flip
//! that preserves per-predicate pass rates is invisible to a
//! selectivity-based monitor by design.
//!
//! Acceptance gate: at one or more nonzero loss rates, the adaptive run
//! strictly improves sensing µJ/tuple or result-delivery rate over the
//! stale baseline. Everything is seeded — reruns are bitwise stable.

use std::sync::Arc;

use acqp_core::prelude::*;
use acqp_core::DriftConfig;
use acqp_obs::{NoopSink, Recorder};
use acqp_sensornet::sim::fleet_from_trace;
use acqp_sensornet::{
    run_simulation, AdaptiveConfig, Basestation, EnergyModel, FaultModel, FaultReport,
    PlannerChoice, ReplanBudget, SimOptions,
};

const EPOCHS: usize = 800;
const MOTES: u16 = 4;
const FAULT_SEED: u64 = 0x5eed;

fn scenario() -> (Schema, Dataset, Dataset, Query) {
    let schema = Schema::new(vec![
        Attribute::new("a", 2, 100.0),
        Attribute::new("b", 2, 100.0),
        Attribute::new("t", 2, 1.0),
    ])
    .unwrap();
    // History: pred-a passes 90%, pred-b 10%.
    let hist_rows: Vec<Vec<u16>> =
        (0..400u16).map(|i| vec![u16::from(i % 10 != 0), u16::from(i % 10 == 0), i % 2]).collect();
    // Live: the marginals reversed.
    let live_rows: Vec<Vec<u16>> = (0..EPOCHS as u16)
        .map(|i| vec![u16::from(i % 10 == 0), u16::from(i % 10 != 0), i % 2])
        .collect();
    let hist = Dataset::from_rows(&schema, hist_rows).unwrap();
    let live = Dataset::from_rows(&schema, live_rows).unwrap();
    let query = Query::new(vec![Pred::in_range(0, 1, 1), Pred::in_range(1, 1, 1)]).unwrap();
    (schema, hist, live, query)
}

struct Point {
    loss: f64,
    stale: FaultReport,
    adaptive: FaultReport,
}

fn sweep_point(loss: f64) -> Point {
    let (schema, hist, live, query) = scenario();
    let bs = Basestation::new(schema.clone(), &hist);
    let planned = bs.plan_query(&query, PlannerChoice::Heuristic(4), 0.0).unwrap();
    let model = EnergyModel::mica_like();
    let faults = FaultModel::lossy(FAULT_SEED, loss);
    let rec = Recorder::new(Arc::new(NoopSink));

    let run = |adaptive: Option<AdaptiveConfig>| {
        let mut motes = fleet_from_trace(&live, MOTES);
        let opts = SimOptions { faults: faults.clone(), adaptive, ..SimOptions::default() };
        run_simulation(&bs, &query, &planned, &mut motes, &model, EPOCHS, &rec, &opts)
            .expect("simulation")
            .fault
    };
    let stale = run(None);

    let cfg = AdaptiveConfig {
        drift: DriftConfig { threshold: 0.2, min_samples: 16 },
        check_every: 8,
        sample_every: 4,
        window: 256,
        min_window: 16,
        budget: ReplanBudget::default(),
        alpha: 0.0,
    };
    let adaptive = run(Some(cfg));
    drop(rec.drain());

    assert!(stale.sim.all_correct && adaptive.sim.all_correct, "verdicts diverged at loss {loss}");
    Point { loss, stale, adaptive }
}

fn main() {
    println!(
        "=== Fault sweep: stale plan vs drift-triggered re-planning \
         ({MOTES} motes x {EPOCHS} epochs, seed {FAULT_SEED:#x}) ==="
    );
    let points: Vec<Point> = [0.0, 0.05, 0.10, 0.20].iter().map(|&l| sweep_point(l)).collect();

    println!(
        "\n{:<6} {:>16} {:>16} {:>12} {:>12} {:>9}",
        "loss", "stale uJ/tuple", "adapt uJ/tuple", "stale deliv", "adapt deliv", "replans"
    );
    let mut fields = Vec::new();
    let mut improved_at_nonzero_loss = false;
    for p in &points {
        let (s, a) = (&p.stale, &p.adaptive);
        let adopted = a.replans.iter().filter(|r| r.adopted).count();
        println!(
            "{:<6.2} {:>16.1} {:>16.1} {:>11.1}% {:>11.1}% {:>6}/{}",
            p.loss,
            s.sim.sensing_uj_per_tuple,
            a.sim.sensing_uj_per_tuple,
            100.0 * s.delivery_rate(),
            100.0 * a.delivery_rate(),
            adopted,
            a.replans.len()
        );
        let tag = format!("loss_{:.2}", p.loss);
        fields.push((format!("{tag}.stale.sensing_uj_per_tuple"), s.sim.sensing_uj_per_tuple));
        fields.push((format!("{tag}.adaptive.sensing_uj_per_tuple"), a.sim.sensing_uj_per_tuple));
        fields.push((format!("{tag}.stale.delivery_rate"), s.delivery_rate()));
        fields.push((format!("{tag}.adaptive.delivery_rate"), a.delivery_rate()));
        fields.push((format!("{tag}.adaptive.replans_adopted"), adopted as f64));
        if p.loss > 0.0
            && (a.sim.sensing_uj_per_tuple < s.sim.sensing_uj_per_tuple
                || a.delivery_rate() > s.delivery_rate())
        {
            improved_at_nonzero_loss = true;
        }
    }
    assert!(
        improved_at_nonzero_loss,
        "re-planning must strictly improve sensing uJ/tuple or delivery rate \
         at at least one nonzero loss rate"
    );
    println!("\nre-planning improves on the stale plan under loss: gate satisfied");

    acqp_bench::report::emit_bench_json("fault_sweep", &fields);
}
