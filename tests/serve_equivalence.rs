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
//! 2. **Mode equivalence** — a merged multi-query schedule produces
//!    bitwise-identical reports in either exec mode: the service runs
//!    one slot kernel, a row walk of each query's prepared plan with
//!    each slot's merged chain charged in first-demand order.

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

/// Honors the `PROPTEST_CASES` override the sanitizer CI jobs set.
fn cases(default_n: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_n)
}

fn assert_ledgers_bitwise(a: &EnergyLedger, b: &EnergyLedger, ctx: &str) {
    assert_eq!(a.sensing_uj.to_bits(), b.sensing_uj.to_bits(), "{ctx}: sensing_uj");
    assert_eq!(a.board_uj.to_bits(), b.board_uj.to_bits(), "{ctx}: board_uj");
    assert_eq!(a.radio_tx_uj.to_bits(), b.radio_tx_uj.to_bits(), "{ctx}: radio_tx_uj");
    assert_eq!(a.radio_rx_uj.to_bits(), b.radio_rx_uj.to_bits(), "{ctx}: radio_rx_uj");
}

fn serve_instance(inst: &Instance, schedule: &[ScheduleEntry], mode: ExecMode) -> ServeReport {
    serve_schedule(
        &inst.schema,
        &inst.data,
        &inst.data,
        schedule,
        2,
        &EnergyModel::mica_like(),
        inst.data.len(),
        mode,
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
        let rep = serve_instance(&inst, &schedule, ExecMode::Scalar);
        prop_assert_eq!(rep.service.tuples(), sim.tuples, "tuples");
        prop_assert_eq!(rep.service.results(), sim.results, "results");
        prop_assert!(rep.service.all_correct(), "verdicts vs ground truth");
        assert_ledgers_bitwise(&rep.service.network, &sim.network, "network");
        prop_assert_eq!(rep.service.per_mote.len(), sim.per_mote.len());
        for (i, (a, b)) in rep.service.per_mote.iter().zip(&sim.per_mote).enumerate() {
            assert_ledgers_bitwise(a, b, &format!("mote {i}"));
        }
    }

    /// A staggered multi-query schedule executes bitwise-identically
    /// under either exec mode.
    #[test]
    fn merged_service_modes_agree_bitwise(inst in instance_strategy()) {
        let epochs = inst.data.len();
        // The instance's query plus its first predicate alone: two
        // distinct signatures with guaranteed attribute overlap, the
        // second admitted mid-run, plus a repeat admission of the first
        // to drive the cache path in both modes.
        let sub = Query::new(vec![inst.query.pred(0)]).expect("one checked predicate");
        let schedule = vec![
            ScheduleEntry::new(inst.query.clone(), 0, epochs),
            ScheduleEntry::new(sub, epochs / 3, epochs),
            ScheduleEntry::new(inst.query.clone(), epochs / 2, epochs / 2),
        ];
        let scalar = serve_instance(&inst, &schedule, ExecMode::Scalar);
        let vec = serve_instance(&inst, &schedule, ExecMode::Vectorized);
        prop_assert!(scalar.service.all_correct());
        prop_assert!(vec.service.all_correct());
        assert_ledgers_bitwise(&scalar.service.network, &vec.service.network, "network");
        for (i, (a, b)) in
            scalar.service.per_mote.iter().zip(&vec.service.per_mote).enumerate()
        {
            assert_ledgers_bitwise(a, b, &format!("mote {i}"));
        }
        prop_assert_eq!(
            scalar.service.bs_tx_uj.to_bits(),
            vec.service.bs_tx_uj.to_bits(),
            "dissemination energy"
        );
        prop_assert_eq!(
            scalar.service.performed_acquisitions,
            vec.service.performed_acquisitions
        );
        prop_assert_eq!(
            scalar.service.demanded_acquisitions,
            vec.service.demanded_acquisitions
        );
        prop_assert_eq!(scalar.service.queries.len(), vec.service.queries.len());
        for (i, (a, b)) in scalar.service.queries.iter().zip(&vec.service.queries).enumerate() {
            prop_assert_eq!(a.admitted, b.admitted, "q{}: admitted", i);
            prop_assert_eq!(a.tuples, b.tuples, "q{}: tuples", i);
            prop_assert_eq!(a.results, b.results, "q{}: results", i);
            prop_assert_eq!(a.cache_hit, b.cache_hit, "q{}: cache_hit", i);
            prop_assert_eq!(a.subproblems, b.subproblems, "q{}: subproblems", i);
            prop_assert_eq!(a.latency_epochs, b.latency_epochs, "q{}: latency", i);
            prop_assert_eq!(a.completed_at, b.completed_at, "q{}: completed_at", i);
        }
        // Sharing must actually have happened: overlapping windows on
        // a shared attribute demand more reads than are performed.
        prop_assert!(
            scalar.service.performed_acquisitions <= scalar.service.demanded_acquisitions
        );
    }
}
