//! Mutation corpus for the static verifier (`DESIGN.md` §15).
//!
//! Every valid wire plan in a small corpus is systematically corrupted
//! — single-byte flips, truncations, and splices — and each mutant must
//! be either
//!
//! * **rejected** by `verify_wire` with a typed [`VerifyError`], in
//!   which case the checked wire interpreter must still be panic-free
//!   on the garbage (it may error), or
//! * **accepted**, in which case it must execute like a real plan:
//!   `execute_wire` succeeds, agrees with the row walk of the decoded
//!   mutant's `PreparedPlan` on verdict, cost bits and acquisition
//!   order, and every row's cost stays inside the certified bound.
//!
//! Across the corpus at least six distinct `VerifyError::class()`
//! labels must be observed — the acceptance bar for "corruption classes
//! rejected with typed errors" — and corrupting a *claim* (not the
//! bytes) must surface as the `cost-claim` class.

#![allow(clippy::float_cmp)]

use std::collections::BTreeSet;

use acqp::core::prelude::*;
use acqp::sensornet::interp::execute_wire;
use acqp::verify::{verify_wire, VerifyError};

/// One corpus entry: a context and a wire image that verifies clean.
struct Entry {
    label: &'static str,
    schema: Schema,
    query: Query,
    wire: Vec<u8>,
}

/// Row `r` of `data` through the checked wire interpreter on a fresh
/// tuple state.
fn interpret(wire: &[u8], e: &Entry, data: &Dataset, r: usize) -> acqp::core::Result<ExecOutcome> {
    let mut st = TupleState::new(e.schema.len());
    execute_wire(wire, &e.query, &e.schema, &mut st, &mut RowSource::new(data, r))
        .map(|verdict| st.into_outcome(verdict))
}

/// Row `r` of `data` through the row walk of `walk`, a certified
/// wire's prepared plan.
fn walk_row(walk: &PreparedPlan, data: &Dataset, r: usize) -> ExecOutcome {
    let row = walk.walk_row(data, r);
    let acquired = walk.chain(row.chain.0, row.chain.1).to_vec();
    ExecOutcome { verdict: row.verdict, cost: row.cost, acquired }
}

/// Planner-produced and handcrafted wires, all certified valid.
fn corpus() -> Vec<Entry> {
    let mut out = Vec::new();

    // Planner-produced plans over a correlated instance: sequential
    // (k=0) and split-heavy (k=3) shapes.
    let schema = Schema::new(vec![
        Attribute::new("a", 6, 1.0),
        Attribute::new("b", 4, 50.0),
        Attribute::new("c", 5, 8.0),
    ])
    .unwrap();
    let rows: Vec<Vec<u16>> =
        (0..80u16).map(|i| vec![i * 7 % 6, (i / 3) % 4, (i * 3 + i / 5) % 5]).collect();
    let data = Dataset::from_rows(&schema, rows).unwrap();
    let query = Query::new(vec![
        Pred::in_range(0, 1, 4),
        Pred::not_in_range(1, 1, 2),
        Pred::in_range(2, 0, 2),
    ])
    .unwrap();
    let est = CountingEstimator::new(&data);
    for (label, k) in [("seq", 0usize), ("greedy", 3)] {
        let plan = GreedyPlanner::new(k).plan(&schema, &query, &est).unwrap();
        out.push(Entry {
            label,
            schema: schema.clone(),
            query: query.clone(),
            wire: plan.encode(),
        });
    }

    // Handcrafted nested resplit: split(a<3) { split(a<2) { seq[0,1],
    // seq[1] }, seq[1,0] }. Guarantees the corpus contains split
    // headers whose attr/cut bytes, once flipped, land in the
    // attr-out-of-range, cut-out-of-domain and dead-arm classes.
    let two = Schema::new(vec![Attribute::new("a", 6, 1.0), Attribute::new("b", 4, 50.0)]).unwrap();
    let two_q = Query::new(vec![Pred::in_range(0, 1, 4), Pred::not_in_range(1, 1, 2)]).unwrap();
    let nested = vec![
        0x03, 0, 3, 0, // split a < 3
        0x03, 0, 2, 0, // lo: split a < 2 (re-split inside [0,2])
        0x02, 2, 0, 1, // lo-lo: seq [0,1]
        0x02, 1, 1, // lo-hi: seq [1]
        0x02, 2, 1, 0, // hi: seq [1,0]
    ];
    out.push(Entry { label: "nested", schema: two.clone(), query: two_q.clone(), wire: nested });

    // Decided leaves in the wire: split(a<2) { reject, seq[0,1] }.
    let decided = vec![0x03, 0, 2, 0, 0x00, 0x02, 2, 0, 1];
    out.push(Entry { label: "decided", schema: two, query: two_q, wire: decided });

    for e in &out {
        verify_wire(&e.wire, &e.query, &e.schema).unwrap_or_else(|err| {
            panic!("{}: corpus entry invalid: {err} ({:?})", e.label, e.wire)
        });
    }
    out
}

/// All systematic corruptions of one wire image: every single-byte
/// flip under three masks, every truncation, and a handful of splices
/// (insertions, chunk duplication, self-append).
fn mutants(wire: &[u8]) -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    for i in 0..wire.len() {
        for mask in [0x01u8, 0x80, 0xff] {
            let mut m = wire.to_vec();
            m[i] ^= mask;
            out.push(m);
        }
    }
    for k in 0..wire.len() {
        out.push(wire[..k].to_vec());
    }
    for i in 0..=wire.len() {
        for b in [0x00u8, 0x01, 0x42] {
            let mut m = wire.to_vec();
            m.insert(i, b);
            out.push(m);
        }
    }
    // Chunk splice: duplicate the middle third in place.
    if wire.len() >= 3 {
        let (lo, hi) = (wire.len() / 3, 2 * wire.len() / 3);
        let mut m = wire.to_vec();
        let chunk: Vec<u8> = wire[lo..hi].to_vec();
        for (off, b) in chunk.into_iter().enumerate() {
            m.insert(hi + off, b);
        }
        out.push(m);
    }
    // Self-append: a valid plan followed by itself must trip the
    // whole-buffer-consumption rule.
    let mut m = wire.to_vec();
    m.extend_from_slice(wire);
    out.push(m);
    out
}

#[test]
fn every_mutant_is_rejected_or_interpreter_identical() {
    let corpus = corpus();
    let mut classes: BTreeSet<&'static str> = BTreeSet::new();
    let mut rejected = 0usize;
    let mut accepted = 0usize;

    // A fixed probe instance per arity: enough rows to exercise both
    // split arms, cheap to execute per mutant.
    let probe = |schema: &Schema| -> Dataset {
        let rows: Vec<Vec<u16>> = (0..12u16)
            .map(|i| (0..schema.len()).map(|a| (i + a as u16) % schema.domain(a)).collect())
            .collect();
        Dataset::from_rows(schema, rows).unwrap()
    };

    for e in &corpus {
        let data = probe(&e.schema);
        for m in mutants(&e.wire) {
            if m == e.wire {
                continue;
            }
            match verify_wire(&m, &e.query, &e.schema) {
                Err(err) => {
                    rejected += 1;
                    classes.insert(err.class());
                    // Rejection never licenses a panic downstream: the
                    // checked interpreter may error, never panic.
                    for r in 0..data.len() {
                        let _ = interpret(&m, e, &data, r);
                    }
                }
                Ok(cert) => {
                    // A mutation that survives verification is, by
                    // definition, a different-but-valid plan. It must
                    // behave exactly like one.
                    accepted += 1;
                    let slack = 1e-9 * cert.bound.worst_case.abs().max(1.0);
                    let plan = Plan::decode(&m).unwrap_or_else(|err| {
                        panic!("{}: accepted mutant {m:?} does not decode: {err}", e.label)
                    });
                    let walk =
                        PreparedPlan::new(&plan, &e.query, &e.schema, &CostModel::PerAttribute);
                    for r in 0..data.len() {
                        let checked = interpret(&m, e, &data, r).unwrap_or_else(|err| {
                            panic!("{}: accepted mutant {m:?} errored: {err}", e.label)
                        });
                        let walked = walk_row(&walk, &data, r);
                        assert_eq!(checked.verdict, walked.verdict, "{}: {m:?} row {r}", e.label);
                        assert_eq!(
                            checked.cost.to_bits(),
                            walked.cost.to_bits(),
                            "{}: {m:?} row {r}",
                            e.label
                        );
                        assert_eq!(checked.acquired, walked.acquired, "{}: {m:?} row {r}", e.label);
                        assert!(
                            checked.cost >= cert.bound.best_case - slack
                                && checked.cost <= cert.bound.worst_case + slack,
                            "{}: accepted mutant {m:?} row {r}: cost {} escapes {:?}",
                            e.label,
                            checked.cost,
                            cert.bound
                        );
                    }
                }
            }
        }
    }

    assert!(rejected > 0, "corpus produced no rejected mutants");
    assert!(
        classes.len() >= 6,
        "want >= 6 distinct corruption classes, got {}: {classes:?}",
        classes.len()
    );
    // The storm must exercise both outcomes, or the accept arm above is
    // dead code and the differential property was never tested.
    assert!(accepted > 0, "no mutant survived verification; accept-path property untested");
}

/// Corrupting the *claim* instead of the bytes is its own class: the
/// wire verifies, but `check_claim` rejects a cost outside the
/// certified interval with the stable `cost-claim` label.
#[test]
fn corrupted_cost_claims_are_their_own_class() {
    for e in &corpus() {
        let cert = verify_wire(&e.wire, &e.query, &e.schema).unwrap();
        let high = cert.bound.worst_case + 1.0 + cert.bound.worst_case.abs();
        let low = cert.bound.best_case - 1.0 - cert.bound.best_case.abs();
        for claim in [high, low, f64::NAN, f64::INFINITY] {
            let err = cert
                .check_claim(claim)
                .expect_err(&format!("{}: claim {claim} must be rejected", e.label));
            assert_eq!(err.class(), "cost-claim", "{}: {err}", e.label);
            assert!(matches!(err, VerifyError::CostClaim { .. }), "{}: {err:?}", e.label);
        }
        // And the honest claim — any convex combination of path costs —
        // still passes (spot-check the midpoint).
        let mid = 0.5 * (cert.bound.best_case + cert.bound.worst_case);
        cert.check_claim(mid).unwrap();
    }
}
