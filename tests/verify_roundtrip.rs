//! Static-verifier round-trip properties (`DESIGN.md` §15).
//!
//! The soundness contract of `acqp-verify`, pinned from the outside:
//!
//! 1. **Completeness on honest plans** — every wire image produced by
//!    `Plan::encode` from a real planner verifies clean, and the
//!    planner's claimed expected cost always lands inside the certified
//!    bound (`check_claim` passes without clamping).
//! 2. **Bound soundness** — no tuple's *actual* execution cost ever
//!    escapes the certified `[best_case, worst_case]` interval, under
//!    all three executors: the tree walker, the checked wire
//!    interpreter, and the row walk of the decoded wire's
//!    `PreparedPlan` that the serve engine runs.
//! 3. **Executor agreement** — all three executors return the same
//!    verdict, bitwise-identical cost and the same acquisition order
//!    for every row, so the prepared form the engine executes is the
//!    certified wire's plan.
//! 4. **State reuse is invisible** — the wire interpreter runs every
//!    row through one reused `TupleState`, as the engines do, and
//!    matches a fresh state per row on verdict, acquisition order and
//!    cost bits.

// Bitwise f64 comparison is the point of the differential assertions.
#![allow(clippy::float_cmp)]

mod common;

use acqp::core::prelude::*;
use acqp::sensornet::interp::execute_wire;
use acqp::verify::{verify_wire, Certificate};
use common::{instance_strategy, Instance};
use proptest::prelude::*;

/// Honors a `PROPTEST_CASES` override, so a slow build can run fewer cases.
fn cases(default_n: u32) -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(default_n)
}

/// Relative slack for interval membership, mirroring
/// `CostBound::check_claim`'s tolerance: float summation order may
/// differ between the verifier's path fold and an executor's traversal.
fn eps(cert: &Certificate) -> f64 {
    1e-9 * cert.bound.worst_case.abs().max(1.0)
}

/// Row `r` of `inst` through the checked wire interpreter on a fresh
/// tuple state, and through the row walk of `walk`, the decoded wire's
/// prepared plan.
fn interpret(
    wire: &[u8],
    walk: &PreparedPlan,
    inst: &Instance,
    r: usize,
) -> (Result<ExecOutcome>, ExecOutcome) {
    let (schema, query) = (&inst.schema, &inst.query);
    let mut st = TupleState::new(schema.len());
    let checked = execute_wire(wire, query, schema, &mut st, &mut RowSource::new(&inst.data, r))
        .map(|verdict| st.into_outcome(verdict));
    let row = walk.walk_row(&inst.data, r);
    let acquired = walk.chain(row.chain.0, row.chain.1).to_vec();
    (checked, ExecOutcome { verdict: row.verdict, cost: row.cost, acquired })
}

/// One planner's report, verified and executed row-by-row against the
/// certificate. Returns the certificate so callers can cross-check
/// planner-independent facts.
fn verify_and_execute(inst: &Instance, report: &PlanReport, label: &str) -> Certificate {
    let wire = report.plan.encode();
    let cert = verify_wire(&wire, &inst.query, &inst.schema)
        .unwrap_or_else(|e| panic!("{label}: honest plan rejected: {e} ({wire:?})"));
    assert!(
        cert.bound.best_case <= cert.bound.worst_case,
        "{label}: inverted bound {:?}",
        cert.bound
    );
    cert.check_claim(report.expected_cost).unwrap_or_else(|e| {
        panic!("{label}: claimed {} outside {:?}: {e}", report.expected_cost, cert.bound)
    });
    let slack = eps(&cert);
    let decoded = Plan::decode(&wire).unwrap_or_else(|e| panic!("{label}: wire decodes: {e}"));
    let walk = PreparedPlan::new(&decoded, &inst.query, &inst.schema, &CostModel::PerAttribute);
    let mut reused = TupleState::new(inst.schema.len());
    for r in 0..inst.data.len() {
        let tree =
            execute(&report.plan, &inst.query, &inst.schema, &mut RowSource::new(&inst.data, r));
        let (checked, walked) = interpret(&wire, &walk, inst, r);
        let checked =
            checked.unwrap_or_else(|e| panic!("{label}: row {r}: honest wire errored: {e}"));
        let reused_verdict = execute_wire(
            &wire,
            &inst.query,
            &inst.schema,
            &mut reused,
            &mut RowSource::new(&inst.data, r),
        )
        .unwrap_or_else(|e| panic!("{label}: row {r}: honest wire errored: {e}"));
        assert_eq!(reused_verdict, checked.verdict, "{label}: row {r}: reused vs fresh verdict");
        assert_eq!(
            reused.acquired(),
            checked.acquired.as_slice(),
            "{label}: row {r}: reused vs fresh acquisition order"
        );
        assert_eq!(
            reused.cost().to_bits(),
            checked.cost.to_bits(),
            "{label}: row {r}: reused vs fresh cost"
        );
        for (other, path) in [(&checked, "wire"), (&walked, "row walk")] {
            assert_eq!(tree.verdict, other.verdict, "{label}: row {r}: tree vs {path} verdict");
            assert_eq!(
                tree.cost.to_bits(),
                other.cost.to_bits(),
                "{label}: row {r}: tree vs {path} cost"
            );
            assert_eq!(tree.acquired, other.acquired, "{label}: row {r}: tree vs {path} chain");
        }
        assert!(
            tree.cost >= cert.bound.best_case - slack && tree.cost <= cert.bound.worst_case + slack,
            "{label}: row {r}: cost {} escapes certified bound {:?}",
            tree.cost,
            cert.bound
        );
    }
    cert
}

proptest! {
    #![proptest_config(ProptestConfig { cases: cases(24), ..ProptestConfig::default() })]

    /// Every `Plan::encode` image from the whole planner family
    /// verifies clean, claims check, and no row's actual cost escapes
    /// the certified interval under any executor.
    #[test]
    fn encoded_plans_verify_clean_and_bounds_hold(inst in instance_strategy()) {
        let est = CountingEstimator::new(&inst.data);
        let seq = GreedyPlanner::new(0)
            .plan_with_report(&inst.schema, &inst.query, &est)
            .expect("seq planning succeeds");
        let greedy = GreedyPlanner::new(3)
            .plan_with_report(&inst.schema, &inst.query, &est)
            .expect("greedy planning succeeds");
        let exhaustive = ExhaustivePlanner::new()
            .max_subproblems(20_000)
            .plan_with_report(&inst.schema, &inst.query, &est)
            .expect("exhaustive planning succeeds");

        let c_seq = verify_and_execute(&inst, &seq, "seq");
        let c_greedy = verify_and_execute(&inst, &greedy, "greedy");
        let c_ex = verify_and_execute(&inst, &exhaustive, "exhaustive");

        // The certificate's own expectation evaluator must agree with
        // the planner's claim (both run Eq. 3 on the decoded tree), and
        // convexity puts any expectation inside the certified interval.
        for (cert, report, label) in
            [(&c_seq, &seq, "seq"), (&c_greedy, &greedy, "greedy"), (&c_ex, &exhaustive, "ex")]
        {
            let ex = cert.expected_under(&report.plan, &inst.query, &inst.schema, &est);
            let slack = eps(cert);
            prop_assert!(
                ex >= cert.bound.best_case - slack && ex <= cert.bound.worst_case + slack,
                "{}: expectation {} outside {:?}", label, ex, cert.bound
            );
        }
    }

    /// Decode/encode round trips through the verifier: re-encoding the
    /// decoded tree yields bytes the verifier certifies with the exact
    /// same bound — verification is a property of the plan, not of one
    /// particular byte image.
    #[test]
    fn reencoded_plans_keep_their_certificate(inst in instance_strategy()) {
        let est = CountingEstimator::new(&inst.data);
        let report = GreedyPlanner::new(2)
            .plan_with_report(&inst.schema, &inst.query, &est)
            .expect("planning succeeds");
        let wire = report.plan.encode();
        let cert = verify_wire(&wire, &inst.query, &inst.schema).expect("honest plan verifies");
        let rewire = Plan::decode(&wire).expect("honest wire decodes").encode();
        prop_assert_eq!(&wire, &rewire, "encode is canonical");
        let recert = verify_wire(&rewire, &inst.query, &inst.schema).expect("re-encode verifies");
        prop_assert_eq!(cert.bound.best_case.to_bits(), recert.bound.best_case.to_bits());
        prop_assert_eq!(cert.bound.worst_case.to_bits(), recert.bound.worst_case.to_bits());
        prop_assert_eq!(cert.stats, recert.stats);
    }
}
