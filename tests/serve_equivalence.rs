//! Differential harness: the multi-query service against the plain
//! engine (`DESIGN.md` §14).
//!
//! Two guarantees are pinned over randomized instances:
//!
//! 1. **Transparency** — a service run with a single query spanning the
//!    whole trace is *bitwise* identical to `run_simulation`:
//!    same tuples, results, per-mote and network energy ledgers to the
//!    bit. The service's sharing machinery must be invisible when there
//!    is nothing to share.
//! 2. **Merged schedules** — a staggered multi-query schedule is exact
//!    for every query, its network ledger is the bitwise sum of its
//!    mote ledgers, a repeat admission is a search-free cache hit, and
//!    merging never performs more reads than the queries demanded.

// Bitwise f64 equality is the entire point of this suite.
#![allow(clippy::float_cmp)]

use acqp::core::exec::ExecMode;
use acqp::core::prelude::*;
use acqp::obs::Recorder;
use acqp::sensornet::sim::{fleet_from_trace, run_simulation, SimOptions};
use acqp::sensornet::{Basestation, EnergyLedger, EnergyModel, ScheduleEntry};
use acqp::serve::{serve_schedule, ServeConfig, ServeReport};
use proptest::prelude::*;

mod common;
use common::{instance_strategy, Instance};

/// Honors a `PROPTEST_CASES` override, so a slow build can run fewer cases.
fn cases(default_n: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_n)
}

fn assert_ledgers_bitwise(a: &EnergyLedger, b: &EnergyLedger, ctx: &str) {
    assert_eq!(a.sensing_uj.to_bits(), b.sensing_uj.to_bits(), "{ctx}: sensing_uj");
    assert_eq!(a.board_uj.to_bits(), b.board_uj.to_bits(), "{ctx}: board_uj");
    assert_eq!(a.radio_tx_uj.to_bits(), b.radio_tx_uj.to_bits(), "{ctx}: radio_tx_uj");
    assert_eq!(a.radio_rx_uj.to_bits(), b.radio_rx_uj.to_bits(), "{ctx}: radio_rx_uj");
}

fn serve_instance(inst: &Instance, schedule: &[ScheduleEntry]) -> ServeReport {
    serve_schedule(
        &inst.schema,
        &inst.data,
        &inst.data,
        schedule,
        2,
        &EnergyModel::mica_like(),
        inst.data.len(),
        ExecMode::Scalar,
        ServeConfig::default(),
        &Recorder::disabled(),
    )
    .expect("service run on a well-formed instance")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(24), ..ProptestConfig::default() })]

    /// A single whole-trace query through the service is bitwise
    /// identical to the plain engine.
    #[test]
    fn single_query_service_is_bitwise_transparent(inst in instance_strategy()) {
        let cfg = ServeConfig::default();
        let epochs = inst.data.len();
        let schedule =
            vec![ScheduleEntry::new(inst.query.clone(), 0, epochs)];
        let bs = Basestation::new(inst.schema.clone(), &inst.data);
        let (_, planned) = bs
            .plan_query_sized(&inst.query, cfg.alpha, &cfg.candidate_splits)
            .expect("planning a checked query");
        let mut fleet = fleet_from_trace(&inst.data, 2);
        let sim = run_simulation(
            &bs,
            &inst.query,
            &planned,
            &mut fleet,
            &EnergyModel::mica_like(),
            epochs,
            &Recorder::disabled(),
            &SimOptions::default(),
        )
        .expect("simulating a certified plan")
        .fault
        .sim;
        let rep = serve_instance(&inst, &schedule);
        prop_assert_eq!(rep.service.tuples(), sim.tuples, "tuples");
        prop_assert_eq!(rep.service.results(), sim.results, "results");
        prop_assert!(rep.service.all_correct(), "verdicts vs ground truth");
        assert_ledgers_bitwise(&rep.service.network, &sim.network, "network");
        prop_assert_eq!(rep.service.per_mote.len(), sim.per_mote.len());
        for (i, (a, b)) in rep.service.per_mote.iter().zip(&sim.per_mote).enumerate() {
            assert_ledgers_bitwise(a, b, &format!("mote {i}"));
        }
    }

    /// A staggered multi-query schedule is exact, accounts its energy
    /// consistently, serves the repeat admission from the plan cache,
    /// and shares reads.
    #[test]
    fn merged_service_schedule_is_exact_and_shares_reads(inst in instance_strategy()) {
        let epochs = inst.data.len();
        // The instance's query plus its first predicate alone: two
        // distinct signatures with guaranteed attribute overlap, the
        // second admitted mid-run, plus a repeat admission of the first
        // to drive the cache path.
        let sub = Query::new(vec![inst.query.pred(0)]).expect("one checked predicate");
        let schedule = vec![
            ScheduleEntry::new(inst.query.clone(), 0, epochs),
            ScheduleEntry::new(sub, epochs / 3, epochs),
            ScheduleEntry::new(inst.query.clone(), epochs / 2, epochs / 2),
        ];
        let rep = serve_instance(&inst, &schedule);
        let service = &rep.service;
        prop_assert!(service.all_correct());
        let mut network = EnergyLedger::default();
        for mote in &service.per_mote {
            network.absorb(mote);
        }
        assert_ledgers_bitwise(&service.network, &network, "network");
        prop_assert!(service.bs_tx_uj > 0.0, "dissemination energy");
        prop_assert_eq!(rep.admitted, schedule.len());
        prop_assert_eq!(rep.cache_hits + rep.cache_misses, rep.admitted as u64);
        prop_assert!(!service.queries[0].cache_hit, "first admission plans");
        prop_assert!(service.queries[2].cache_hit, "repeat admission hits the cache");
        prop_assert_eq!(rep.hit_subproblems, 0, "cache hits skip plan search");
        for (i, q) in service.queries.iter().enumerate() {
            prop_assert!(q.admitted, "q{}: admitted", i);
            prop_assert!(q.results <= q.tuples, "q{}: results", i);
            prop_assert_eq!(q.status, QueryStatus::Complete, "q{}: status", i);
            prop_assert!(q.admit < q.completed_at && q.completed_at <= epochs, "q{}: window", i);
        }
        // Sharing must actually have happened: overlapping windows on
        // a shared attribute demand at least as many reads as are
        // performed.
        prop_assert!(service.performed_acquisitions <= service.demanded_acquisitions);
    }
}
