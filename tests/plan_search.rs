//! Plan-search properties of the exhaustive planner.
//!
//! The search is a deterministic function of its inputs: recording it
//! changes neither the plan nor any search-effort tally. Truncation
//! (subproblem cap or deadline) is the one escape hatch: a truncated
//! search may return a worse plan, but never an invalid or
//! super-optimal one.

use acqp::core::prelude::*;
use acqp::obs::{NoopSink, Recorder};
use proptest::prelude::*;
use std::sync::Arc;

mod common;
use common::{instance_strategy, Instance};

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Recording is free of observer effects: with a live recorder the
    /// exhaustive planner returns the identical plan and bitwise-equal
    /// cost, and the `planner.subproblems.opened` counter agrees exactly
    /// with [`PlanReport::subproblems`] — the counter increment sits
    /// adjacent to every budget grant, so a drift here means a code path
    /// opens subproblems without accounting for them (or vice versa).
    /// The search's effort tallies are exact too: a second recorded run
    /// reports the same memo hits/misses and prune counts.
    #[test]
    fn recording_does_not_perturb_search(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let plain = ExhaustivePlanner::new()
            .max_subproblems(500_000)
            .plan_with_report(&schema, &query, &est)
            .unwrap();
        let rec = Recorder::new(Arc::new(NoopSink));
        let recorded = ExhaustivePlanner::new()
            .max_subproblems(500_000)
            .with_recorder(rec.clone())
            .plan_with_report(&schema, &query, &est)
            .unwrap();
        prop_assert_eq!(
            plain.expected_cost.to_bits(), recorded.expected_cost.to_bits(),
            "recording changed the expected cost: {} vs {}",
            plain.expected_cost, recorded.expected_cost);
        prop_assert_eq!(&plain.plan, &recorded.plan, "recording changed the chosen plan");
        let snap = rec.drain();
        prop_assert_eq!(
            snap.counter("planner.subproblems.opened"), recorded.subproblems as u64,
            "metrics counter disagrees with PlanReport::subproblems");
        let rec2 = Recorder::new(Arc::new(NoopSink));
        ExhaustivePlanner::new()
            .max_subproblems(500_000)
            .with_recorder(rec2.clone())
            .plan_with_report(&schema, &query, &est)
            .unwrap();
        let snap2 = rec2.drain();
        for name in [
            "planner.memo.hit",
            "planner.memo.miss",
            "planner.prune.attr_cost",
            "planner.prune.lower_bound",
        ] {
            prop_assert_eq!(snap.counter(name), snap2.counter(name), "{} differs between runs", name);
        }
    }

    /// A budget-truncated exhaustive search still returns a correct plan
    /// whose cost is never below the true optimum.
    #[test]
    fn truncated_never_beats_optimum(inst in instance_strategy()) {
        let Instance { schema, data, query } = inst;
        let est = CountingEstimator::with_ranges(&data, Ranges::root(&schema));
        let full = ExhaustivePlanner::new()
            .max_subproblems(500_000)
            .plan_with_report(&schema, &query, &est)
            .unwrap();
        prop_assume!(!full.truncated);
        for cap in [1usize, 8, 64] {
            let cut = ExhaustivePlanner::new()
                .max_subproblems(cap)
                .plan_with_report(&schema, &query, &est)
                .unwrap();
            // The truncated plan is still exact on every tuple...
            let rep = measure(&cut.plan, &query, &schema, &data);
            prop_assert!(rep.all_correct, "cap={cap} produced an incorrect plan");
            prop_assert!((cut.expected_cost - rep.mean_cost).abs() < 1e-6,
                "cap={}: claimed {} vs measured {}", cap, cut.expected_cost, rep.mean_cost);
            // ...and never cheaper than the proven optimum.
            prop_assert!(cut.expected_cost >= full.expected_cost - 1e-9,
                "cap={}: truncated {} beat optimum {}",
                cap, cut.expected_cost, full.expected_cost);
        }
    }
}
