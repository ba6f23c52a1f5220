//! Property tests for the fault-injection layer: loss-0 transparency,
//! the retry cap, fixed-seed determinism, and the re-plan adoption gate.

mod common;

use std::sync::Arc;

use acqp::obs::{NoopSink, Recorder};
use acqp::sensornet::{
    attempt_packet, run_simulation, sim::fleet_from_trace, Basestation, EnergyModel, FaultModel,
    FaultStats, FaultStream, PlannerChoice, ReplanBudget, SimOptions,
};
use common::{instance_strategy, Instance};
use proptest::prelude::*;

/// Plans `inst`'s query over its data and runs the live half through a
/// fleet under `faults`, returning the fault report.
fn simulate(inst: &Instance, faults: &FaultModel) -> acqp::sensornet::FaultReport {
    let (history, live) = inst.data.split_at(0.5);
    let bs = Basestation::new(inst.schema.clone(), &history);
    let planned = bs.plan_query(&inst.query, PlannerChoice::Heuristic(3), 0.0).unwrap();
    let model = EnergyModel::mica_like();
    let rec = Recorder::new(Arc::new(NoopSink));
    let mut motes = fleet_from_trace(&live, 3);
    let opts = SimOptions { faults: faults.clone(), ..SimOptions::default() };
    run_simulation(&bs, &inst.query, &planned, &mut motes, &model, live.len(), &rec, &opts)
        .unwrap()
        .fault
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// A fault model with zero loss everywhere must be invisible: the
    /// report — verdicts, energy ledgers, everything — is bitwise the
    /// lossless simulator's.
    #[test]
    fn zero_loss_fault_model_is_bitwise_transparent(
        inst in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let (history, live) = inst.data.split_at(0.5);
        let bs = Basestation::new(inst.schema.clone(), &history);
        let planned = bs.plan_query(&inst.query, PlannerChoice::Heuristic(3), 0.0).unwrap();
        let model = EnergyModel::mica_like();

        let mut motes = fleet_from_trace(&live, 3);
        let lossless = run_simulation(
            &bs, &inst.query, &planned, &mut motes, &model, live.len(),
            &Recorder::disabled(), &SimOptions::default(),
        )
        .unwrap()
        .fault
        .sim;
        let faulty = simulate(&inst, &FaultModel::lossy(seed, 0.0));

        prop_assert_eq!(lossless.epochs, faulty.sim.epochs);
        prop_assert_eq!(lossless.tuples, faulty.sim.tuples);
        prop_assert_eq!(lossless.results, faulty.sim.results);
        prop_assert_eq!(lossless.all_correct, faulty.sim.all_correct);
        prop_assert_eq!(lossless.network, faulty.sim.network);
        prop_assert_eq!(&lossless.per_mote, &faulty.sim.per_mote);
        prop_assert_eq!(
            lossless.sensing_uj_per_tuple.to_bits(),
            faulty.sim.sensing_uj_per_tuple.to_bits()
        );
        prop_assert_eq!(faulty.delivered_results, faulty.sim.results);
        prop_assert_eq!(faulty.lost_results, 0);
        prop_assert_eq!(faulty.aborted_tuples, 0);
    }

    /// Retries never exceed the attempt cap, even on a link that loses
    /// every packet; delivery on a dead link is impossible and exactly
    /// `max_attempts` transmissions are charged.
    #[test]
    fn retries_respect_the_attempt_cap(
        seed in any::<u64>(),
        cap in 1u32..=8,
        mote in 0u16..8,
        epoch in 0usize..64,
    ) {
        let faults = FaultModel::lossy(seed, 1.0).with_max_attempts(cap);
        let rec = Recorder::new(Arc::new(NoopSink));
        let stats = FaultStats::new(&rec);
        for stream in [FaultStream::Dissemination, FaultStream::Result, FaultStream::Sample] {
            let d = attempt_packet(&faults, stream, mote, epoch, &stats);
            prop_assert_eq!(d.attempts, cap);
            prop_assert!(!d.delivered);
        }
        // And under partial loss the cap still binds.
        let faults = FaultModel::lossy(seed, 0.5).with_max_attempts(cap);
        let d = attempt_packet(&faults, FaultStream::Result, mote, epoch, &stats);
        prop_assert!(d.attempts >= 1 && d.attempts <= cap);
        drop(rec.drain());
    }

    /// The same seed replays the same lossy run: every count and every
    /// energy figure is reproduced exactly.
    #[test]
    fn fixed_seed_lossy_runs_are_deterministic(
        inst in instance_strategy(),
        seed in any::<u64>(),
    ) {
        let faults = FaultModel::lossy(seed, 0.35).with_sensing_failures(0.1);
        let a = simulate(&inst, &faults);
        let b = simulate(&inst, &faults);
        prop_assert_eq!(a.delivered_results, b.delivered_results);
        prop_assert_eq!(a.lost_results, b.lost_results);
        prop_assert_eq!(a.aborted_tuples, b.aborted_tuples);
        prop_assert_eq!(a.sim.results, b.sim.results);
        prop_assert_eq!(a.sim.network, b.sim.network);
        prop_assert_eq!(&a.sim.per_mote, &b.sim.per_mote);
    }

    /// A drift-triggered re-plan is adopted only when it is strictly
    /// cheaper than continuing the stale plan under the drifted window's
    /// distribution — adoption can never raise expected cost.
    #[test]
    fn adopted_replan_never_costs_more_than_the_stale_plan(
        inst in instance_strategy(),
    ) {
        let (history, window) = inst.data.split_at(0.5);
        prop_assume!(!window.is_empty());
        let bs = Basestation::new(inst.schema.clone(), &history);
        let stale = bs.plan_query(&inst.query, PlannerChoice::Naive, 0.0).unwrap();
        let out = bs
            .replan(&inst.query, &window, &ReplanBudget::default(), 0.0, &stale)
            .unwrap();
        prop_assert!(out.new_cost.is_finite() && out.stale_cost.is_finite());
        if out.adopted {
            prop_assert!(
                out.new_cost < out.stale_cost,
                "adopted at {} vs stale {}", out.new_cost, out.stale_cost
            );
        }
        prop_assert_eq!(out.est_selectivities.len(), inst.query.len());
    }
}
